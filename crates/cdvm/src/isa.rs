//! The cdvm instruction set and its binary encoding.
//!
//! Instructions are a fixed 8 bytes: `[op:u8][rd:u8][rs1:u8][rs2:u8][imm:i32]`
//! (little-endian immediate). A fixed-width encoding keeps runtime code
//! generation and relocation trivial — dIPC proxies are generated by copying
//! a template and patching `Movi`/`Movhi` immediates in place (§6.1.1).
//!
//! Register conventions (RISC-V flavoured):
//!
//! | reg | name | role |
//! |-----|------|------|
//! | x0  | zero | always 0 |
//! | x1  | ra   | return address |
//! | x2  | sp   | stack pointer |
//! | x3  | gp   | (free) |
//! | x4  | tp   | thread pointer (TLS base; written by `Wrfsbase`) |
//! | x5–x7, x28–x31 | t0–t6 | caller-saved temporaries |
//! | x8–x9, x18–x27 | s0–s11 | callee-saved |
//! | x10–x17 | a0–a7 | arguments / results (a7 = syscall number) |

/// Size of one encoded instruction in bytes.
pub const INSTR_BYTES: u64 = 8;

/// A general-purpose register index (0–31).
pub type Reg = u8;

/// A capability register index (0–7).
pub type CapReg = u8;

/// Register name constants.
pub mod reg {
    use super::Reg;

    pub const ZERO: Reg = 0;
    pub const RA: Reg = 1;
    pub const SP: Reg = 2;
    pub const GP: Reg = 3;
    pub const TP: Reg = 4;
    pub const T0: Reg = 5;
    pub const T1: Reg = 6;
    pub const T2: Reg = 7;
    pub const S0: Reg = 8;
    pub const S1: Reg = 9;
    pub const A0: Reg = 10;
    pub const A1: Reg = 11;
    pub const A2: Reg = 12;
    pub const A3: Reg = 13;
    pub const A4: Reg = 14;
    pub const A5: Reg = 15;
    pub const A6: Reg = 16;
    pub const A7: Reg = 17;
    pub const S2: Reg = 18;
    pub const S3: Reg = 19;
    pub const S4: Reg = 20;
    pub const S5: Reg = 21;
    pub const S6: Reg = 22;
    pub const S7: Reg = 23;
    pub const S8: Reg = 24;
    pub const S9: Reg = 25;
    pub const S10: Reg = 26;
    pub const S11: Reg = 27;
    pub const T3: Reg = 28;
    pub const T4: Reg = 29;
    pub const T5: Reg = 30;
    pub const T6: Reg = 31;

    /// The callee-saved registers (what "register integrity" stubs save).
    pub const CALLEE_SAVED: [Reg; 12] = [S0, S1, S2, S3, S4, S5, S6, S7, S8, S9, S10, S11];

    /// The caller-saved temporaries (what "register confidentiality" stubs
    /// zero when they are not arguments).
    pub const CALLER_SAVED: [Reg; 7] = [T0, T1, T2, T3, T4, T5, T6];

    /// The argument registers.
    pub const ARGS: [Reg; 8] = [A0, A1, A2, A3, A4, A5, A6, A7];
}

/// A decoded cdvm instruction.
///
/// `c*` fields are capability-register indices (0–7); everything else is a
/// GPR index or an immediate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    // --- Misc ---
    /// No operation.
    Nop,
    /// `rd = sign_extend(imm)`.
    Movi { rd: Reg, imm: i32 },
    /// `rd = (rd & 0xffff_ffff) | (imm as u32 as u64) << 32`.
    Movhi { rd: Reg, imm: i32 },

    // --- ALU, register-register ---
    /// `rd = rs1 + rs2`.
    Add { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 - rs2`.
    Sub { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 * rs2`.
    Mul { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 / rs2` (unsigned; division by zero faults).
    Divu { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 % rs2` (unsigned; division by zero faults).
    Remu { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 & rs2`.
    And { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 | rs2`.
    Or { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 ^ rs2`.
    Xor { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 << (rs2 & 63)`.
    Sll { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = rs1 >> (rs2 & 63)` (logical).
    Srl { rd: Reg, rs1: Reg, rs2: Reg },
    /// `rd = (rs1 < rs2) ? 1 : 0` (unsigned).
    Sltu { rd: Reg, rs1: Reg, rs2: Reg },

    // --- ALU, immediate ---
    /// `rd = rs1 + sign_extend(imm)`.
    Addi { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 & sign_extend(imm)`.
    Andi { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 | sign_extend(imm)`.
    Ori { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 << imm`.
    Slli { rd: Reg, rs1: Reg, imm: i32 },
    /// `rd = rs1 >> imm` (logical).
    Srli { rd: Reg, rs1: Reg, imm: i32 },

    // --- Memory ---
    /// `rd = mem64[rs1 + imm]`.
    Ld { rd: Reg, rs1: Reg, imm: i32 },
    /// Atomic fetch-add: `rd = mem64[rs1]; mem64[rs1] += rs2`, as one
    /// indivisible access (x86 `lock xadd`). Requires write permission on
    /// the target page; the asynchronous-ring MPSC producers use it to
    /// claim slot tickets without kernel involvement.
    Amoadd { rd: Reg, rs1: Reg, rs2: Reg },
    /// `mem64[rs1 + imm] = rs2`.
    St { rs1: Reg, rs2: Reg, imm: i32 },
    /// `rd = zero_extend(mem8[rs1 + imm])`.
    Ldb { rd: Reg, rs1: Reg, imm: i32 },
    /// `mem8[rs1 + imm] = rs2 & 0xff`.
    Stb { rs1: Reg, rs2: Reg, imm: i32 },
    /// Bulk copy: `memmove(dst=rd, src=rs1, len=rs2)`; all pages are checked
    /// before any byte moves, and per-byte cost is charged.
    MemCpy { rd: Reg, rs1: Reg, rs2: Reg },
    /// Bulk fill: `memset(dst=rd, byte=rs1, len=rs2)`.
    MemSet { rd: Reg, rs1: Reg, rs2: Reg },

    // --- Control ---
    /// `rd = pc + 8; pc += imm`.
    Jal { rd: Reg, imm: i32 },
    /// `rd = pc + 8; pc = rs1 + imm`.
    Jalr { rd: Reg, rs1: Reg, imm: i32 },
    /// `if rs1 == rs2 { pc += imm }`.
    Beq { rs1: Reg, rs2: Reg, imm: i32 },
    /// `if rs1 != rs2 { pc += imm }`.
    Bne { rs1: Reg, rs2: Reg, imm: i32 },
    /// `if rs1 < rs2 { pc += imm }` (unsigned).
    Bltu { rs1: Reg, rs2: Reg, imm: i32 },
    /// `if rs1 >= rs2 { pc += imm }` (unsigned).
    Bgeu { rs1: Reg, rs2: Reg, imm: i32 },

    // --- System ---
    /// System call; number in a7, args in a0–a5, result in a0.
    Ecall,
    /// Stop this thread's execution (thread exit at the hardware level).
    Halt,
    /// Consume `max(rs1, imm)` cycles of simulated application work
    /// (`rs1` = 0 means use `imm`; models computation without filler code).
    Work { rs1: Reg, imm: i32 },
    /// Deliberate fault (models e.g. a null-pointer crash in tests).
    Crash,
    /// `rd = current cycle count` (user-level timing).
    Rdcycle { rd: Reg },
    /// `rd = current CPU index`.
    CpuId { rd: Reg },

    // --- Privileged (require kernel mode or a PRIV_CAP code page) ---
    /// Swap `gs` with the shadow gs (kernel per-CPU base juggling).
    Swapgs,
    /// `rd = gs` (read per-CPU base). Unprivileged, like `rdgsbase`.
    Rdgs { rd: Reg },
    /// `gs = rs1` (privileged).
    Wrgs { rs1: Reg },
    /// `tp = rs1`: write the TLS base. Unprivileged but expensive
    /// (`wrfsbase`, §6.1.2 "we use a costly wrfsbase in x86-64").
    Wrfsbase { rs1: Reg },
    /// Switch the active page table to id `rs1` and flush TLBs (privileged).
    PtSwitch { rs1: Reg },
    /// Leave kernel mode and jump to `rs1` (privileged).
    Sysret { rs1: Reg },
    /// dIPC §4.3 extension: `rd = hardware domain tag of software tag rs1`,
    /// or `u64::MAX` if not cached (privileged; < L1-hit latency).
    TagLookup { rd: Reg, rs1: Reg },

    // --- CODOMs capabilities ---
    /// Derive capability `crd` over `[rs1, rs1+rs2)` from the current
    /// domain's APL rights (or self grant). `imm` bits 0–1: requested
    /// permission (1=call, 2=read, 3=write); bit 2: asynchronous.
    CapAplTake { crd: CapReg, rs1: Reg, rs2: Reg, imm: i32 },
    /// Narrow `crd`'s bounds in place to `[rs1, rs1+rs2)` (fault if it would
    /// widen).
    CapSetBounds { crd: CapReg, rs1: Reg, rs2: Reg },
    /// Narrow `crd`'s permission in place to `imm` (fault if widening).
    CapSetPerm { crd: CapReg, imm: i32 },
    /// Push capability register `crs` (encoded in rs1) onto the DCS.
    CapPush { crs: CapReg },
    /// Pop the DCS top into capability register `crd`.
    CapPop { crd: CapReg },
    /// Load `crd` from a capability-storage page at `rs1 + imm`.
    CapLd { crd: CapReg, rs1: Reg, imm: i32 },
    /// Store `crs` to a capability-storage page at `rs1 + imm`.
    CapSt { crs: CapReg, rs1: Reg, imm: i32 },
    /// Invalidate capability register `crd`.
    CapClear { crd: CapReg },
    /// `crd = crs`.
    CapMov { crd: CapReg, crs: CapReg },
    /// Bump the current thread's revocation counter, immediately revoking
    /// all its outstanding synchronous capabilities.
    CapRevoke,
    // --- DCS register manipulation ---
    /// `rd = DCS base`.
    DcsGetBase { rd: Reg },
    /// `DCS base = rs1` (privileged; used by proxies for DCS integrity).
    DcsSetBase { rs1: Reg },
    /// `rd = DCS top`.
    DcsGetTop { rd: Reg },
    /// `DCS top = rs1` (privileged).
    DcsSetTop { rs1: Reg },
    /// Install a fresh DCS window `[rs1, rs2)` with base = top = rs1
    /// (privileged; DCS confidentiality switches stacks).
    DcsSetWindow { rs1: Reg, rs2: Reg },
    /// `rd = DCS window start`.
    DcsGetStart { rd: Reg },
    /// `rd = DCS window limit`.
    DcsGetLimit { rd: Reg },
}

impl Instr {
    /// Encodes to the fixed 8-byte format.
    pub fn encode(&self) -> [u8; 8] {
        let (op, rd, rs1, rs2, imm) = self.fields();
        let mut b = [0u8; 8];
        b[0] = op;
        b[1] = rd;
        b[2] = rs1;
        b[3] = rs2;
        b[4..8].copy_from_slice(&imm.to_le_bytes());
        b
    }

    /// Decodes from the fixed 8-byte format. Returns `None` for an unknown
    /// opcode or a register field above 31 (an illegal-instruction fault in
    /// the VM).
    pub fn decode(b: &[u8; 8]) -> Option<Instr> {
        let (op, rd, rs1, rs2) = (b[0], b[1], b[2], b[3]);
        let imm = i32::from_le_bytes(b[4..8].try_into().expect("slice len 4"));
        // Register fields carry 5-bit indices in whole bytes: a larger
        // value is an illegal encoding, not a register.
        if rd >= 32 || rs1 >= 32 || rs2 >= 32 {
            return None;
        }
        use Instr::*;
        Some(match op {
            0 => Nop,
            1 => Movi { rd, imm },
            2 => Movhi { rd, imm },
            3 => Add { rd, rs1, rs2 },
            4 => Sub { rd, rs1, rs2 },
            5 => Mul { rd, rs1, rs2 },
            6 => Divu { rd, rs1, rs2 },
            7 => Remu { rd, rs1, rs2 },
            8 => And { rd, rs1, rs2 },
            9 => Or { rd, rs1, rs2 },
            10 => Xor { rd, rs1, rs2 },
            11 => Sll { rd, rs1, rs2 },
            12 => Srl { rd, rs1, rs2 },
            13 => Sltu { rd, rs1, rs2 },
            14 => Addi { rd, rs1, imm },
            15 => Andi { rd, rs1, imm },
            16 => Ori { rd, rs1, imm },
            17 => Slli { rd, rs1, imm },
            18 => Srli { rd, rs1, imm },
            19 => Ld { rd, rs1, imm },
            20 => St { rs1, rs2, imm },
            21 => Ldb { rd, rs1, imm },
            22 => Stb { rs1, rs2, imm },
            23 => MemCpy { rd, rs1, rs2 },
            24 => MemSet { rd, rs1, rs2 },
            25 => Jal { rd, imm },
            26 => Jalr { rd, rs1, imm },
            27 => Beq { rs1, rs2, imm },
            28 => Bne { rs1, rs2, imm },
            29 => Bltu { rs1, rs2, imm },
            30 => Bgeu { rs1, rs2, imm },
            31 => Ecall,
            32 => Halt,
            33 => Work { rs1, imm },
            34 => Crash,
            35 => Rdcycle { rd },
            36 => CpuId { rd },
            37 => Swapgs,
            38 => Rdgs { rd },
            39 => Wrgs { rs1 },
            40 => Wrfsbase { rs1 },
            41 => PtSwitch { rs1 },
            42 => Sysret { rs1 },
            43 => TagLookup { rd, rs1 },
            44 => CapAplTake { crd: rd, rs1, rs2, imm },
            45 => CapSetBounds { crd: rd, rs1, rs2 },
            46 => CapSetPerm { crd: rd, imm },
            47 => CapPush { crs: rs1 },
            48 => CapPop { crd: rd },
            49 => CapLd { crd: rd, rs1, imm },
            50 => CapSt { crs: rd, rs1, imm },
            51 => CapClear { crd: rd },
            52 => CapMov { crd: rd, crs: rs1 },
            53 => CapRevoke,
            54 => DcsGetBase { rd },
            55 => DcsSetBase { rs1 },
            56 => DcsGetTop { rd },
            57 => DcsSetTop { rs1 },
            58 => DcsSetWindow { rs1, rs2 },
            59 => DcsGetStart { rd },
            60 => DcsGetLimit { rd },
            61 => Amoadd { rd, rs1, rs2 },
            _ => return None,
        })
    }

    /// Returns (op, rd, rs1, rs2, imm) for encoding.
    fn fields(&self) -> (u8, u8, u8, u8, i32) {
        use Instr::*;
        match *self {
            Nop => (0, 0, 0, 0, 0),
            Movi { rd, imm } => (1, rd, 0, 0, imm),
            Movhi { rd, imm } => (2, rd, 0, 0, imm),
            Add { rd, rs1, rs2 } => (3, rd, rs1, rs2, 0),
            Sub { rd, rs1, rs2 } => (4, rd, rs1, rs2, 0),
            Mul { rd, rs1, rs2 } => (5, rd, rs1, rs2, 0),
            Divu { rd, rs1, rs2 } => (6, rd, rs1, rs2, 0),
            Remu { rd, rs1, rs2 } => (7, rd, rs1, rs2, 0),
            And { rd, rs1, rs2 } => (8, rd, rs1, rs2, 0),
            Or { rd, rs1, rs2 } => (9, rd, rs1, rs2, 0),
            Xor { rd, rs1, rs2 } => (10, rd, rs1, rs2, 0),
            Sll { rd, rs1, rs2 } => (11, rd, rs1, rs2, 0),
            Srl { rd, rs1, rs2 } => (12, rd, rs1, rs2, 0),
            Sltu { rd, rs1, rs2 } => (13, rd, rs1, rs2, 0),
            Addi { rd, rs1, imm } => (14, rd, rs1, 0, imm),
            Andi { rd, rs1, imm } => (15, rd, rs1, 0, imm),
            Ori { rd, rs1, imm } => (16, rd, rs1, 0, imm),
            Slli { rd, rs1, imm } => (17, rd, rs1, 0, imm),
            Srli { rd, rs1, imm } => (18, rd, rs1, 0, imm),
            Ld { rd, rs1, imm } => (19, rd, rs1, 0, imm),
            St { rs1, rs2, imm } => (20, 0, rs1, rs2, imm),
            Ldb { rd, rs1, imm } => (21, rd, rs1, 0, imm),
            Stb { rs1, rs2, imm } => (22, 0, rs1, rs2, imm),
            MemCpy { rd, rs1, rs2 } => (23, rd, rs1, rs2, 0),
            MemSet { rd, rs1, rs2 } => (24, rd, rs1, rs2, 0),
            Jal { rd, imm } => (25, rd, 0, 0, imm),
            Jalr { rd, rs1, imm } => (26, rd, rs1, 0, imm),
            Beq { rs1, rs2, imm } => (27, 0, rs1, rs2, imm),
            Bne { rs1, rs2, imm } => (28, 0, rs1, rs2, imm),
            Bltu { rs1, rs2, imm } => (29, 0, rs1, rs2, imm),
            Bgeu { rs1, rs2, imm } => (30, 0, rs1, rs2, imm),
            Ecall => (31, 0, 0, 0, 0),
            Halt => (32, 0, 0, 0, 0),
            Work { rs1, imm } => (33, 0, rs1, 0, imm),
            Crash => (34, 0, 0, 0, 0),
            Rdcycle { rd } => (35, rd, 0, 0, 0),
            CpuId { rd } => (36, rd, 0, 0, 0),
            Swapgs => (37, 0, 0, 0, 0),
            Rdgs { rd } => (38, rd, 0, 0, 0),
            Wrgs { rs1 } => (39, 0, rs1, 0, 0),
            Wrfsbase { rs1 } => (40, 0, rs1, 0, 0),
            PtSwitch { rs1 } => (41, 0, rs1, 0, 0),
            Sysret { rs1 } => (42, 0, rs1, 0, 0),
            TagLookup { rd, rs1 } => (43, rd, rs1, 0, 0),
            CapAplTake { crd, rs1, rs2, imm } => (44, crd, rs1, rs2, imm),
            CapSetBounds { crd, rs1, rs2 } => (45, crd, rs1, rs2, 0),
            CapSetPerm { crd, imm } => (46, crd, 0, 0, imm),
            CapPush { crs } => (47, 0, crs, 0, 0),
            CapPop { crd } => (48, crd, 0, 0, 0),
            CapLd { crd, rs1, imm } => (49, crd, rs1, 0, imm),
            CapSt { crs, rs1, imm } => (50, crs, rs1, 0, imm),
            CapClear { crd } => (51, crd, 0, 0, 0),
            CapMov { crd, crs } => (52, crd, crs, 0, 0),
            CapRevoke => (53, 0, 0, 0, 0),
            DcsGetBase { rd } => (54, rd, 0, 0, 0),
            DcsSetBase { rs1 } => (55, 0, rs1, 0, 0),
            DcsGetTop { rd } => (56, rd, 0, 0, 0),
            DcsSetTop { rs1 } => (57, 0, rs1, 0, 0),
            DcsSetWindow { rs1, rs2 } => (58, 0, rs1, rs2, 0),
            DcsGetStart { rd } => (59, rd, 0, 0, 0),
            DcsGetLimit { rd } => (60, rd, 0, 0, 0),
            Amoadd { rd, rs1, rs2 } => (61, rd, rs1, rs2, 0),
        }
    }

    /// True if this instruction requires privilege (kernel mode or a
    /// PRIV_CAP code page).
    pub fn is_privileged(&self) -> bool {
        use Instr::*;
        matches!(
            self,
            Swapgs
                | Wrgs { .. }
                | PtSwitch { .. }
                | Sysret { .. }
                | TagLookup { .. }
                | DcsSetBase { .. }
                | DcsSetTop { .. }
                | DcsSetWindow { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instrs() -> Vec<Instr> {
        use Instr::*;
        vec![
            Nop,
            Movi { rd: 5, imm: -42 },
            Movhi { rd: 31, imm: i32::MAX },
            Add { rd: 1, rs1: 2, rs2: 3 },
            Divu { rd: 10, rs1: 11, rs2: 12 },
            Addi { rd: 2, rs1: 2, imm: -16 },
            Ld { rd: 7, rs1: 2, imm: 8 },
            St { rs1: 2, rs2: 7, imm: -8 },
            Amoadd { rd: 6, rs1: 7, rs2: 8 },
            MemCpy { rd: 10, rs1: 11, rs2: 12 },
            Jal { rd: 1, imm: 800 },
            Jalr { rd: 0, rs1: 1, imm: 0 },
            Beq { rs1: 4, rs2: 5, imm: -64 },
            Ecall,
            Halt,
            Work { rs1: 0, imm: 1000 },
            Swapgs,
            Wrfsbase { rs1: 9 },
            TagLookup { rd: 6, rs1: 7 },
            CapAplTake { crd: 3, rs1: 10, rs2: 11, imm: 0b110 },
            CapSetBounds { crd: 3, rs1: 10, rs2: 11 },
            CapPush { crs: 7 },
            CapPop { crd: 0 },
            CapLd { crd: 2, rs1: 2, imm: 32 },
            CapSt { crs: 2, rs1: 2, imm: 32 },
            DcsSetWindow { rs1: 5, rs2: 6 },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for i in sample_instrs() {
            let b = i.encode();
            assert_eq!(Instr::decode(&b), Some(i), "roundtrip failed for {i:?}");
        }
    }

    #[test]
    fn unknown_opcode_decodes_to_none() {
        let b = [0xff, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(Instr::decode(&b), None);
        // An out-of-range register field is illegal too (Add rd=32).
        assert_eq!(Instr::decode(&[3, 32, 0, 0, 0, 0, 0, 0]), None);
    }

    #[test]
    fn privileged_set() {
        assert!(Instr::Swapgs.is_privileged());
        assert!(Instr::PtSwitch { rs1: 1 }.is_privileged());
        assert!(Instr::TagLookup { rd: 1, rs1: 2 }.is_privileged());
        assert!(Instr::DcsSetBase { rs1: 1 }.is_privileged());
        assert!(!Instr::Wrfsbase { rs1: 1 }.is_privileged(), "wrfsbase is user-visible");
        assert!(!Instr::Ecall.is_privileged());
        assert!(!Instr::CapPush { crs: 0 }.is_privileged());
    }

    #[test]
    fn negative_immediates_preserved() {
        let i = Instr::Addi { rd: 1, rs1: 1, imm: i32::MIN };
        assert_eq!(Instr::decode(&i.encode()), Some(i));
    }
}
