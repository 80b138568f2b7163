//! Differential proof that the execution engine is invisible: the same
//! programs, run on the interpreter oracle (every host cache off) and on
//! the full engine (decoded-instruction cache, superblocks with crossing
//! descriptors and direct-threaded dispatch, data-operand translation
//! cache), must produce identical simulated cycles, registers, faults,
//! telemetry and trace output.
//!
//! Three layers:
//!  * a full-system check driving the `fig5` binary as a subprocess with
//!    and without `CDVM_NO_FASTPATH=1` (sampled at process start),
//!    comparing stdout plus exported traces byte-for-byte (the metrics
//!    summary is compared after dropping the `host.*` cache-telemetry
//!    counters, which legitimately differ between modes);
//!  * in-process CPU-level checks (via `simmem::set_fastpath`) covering
//!    fault paths a figure binary never takes, driven through `Cpu::run`
//!    so the block engine engages;
//!  * generated programs: random mixes of ALU ops, loads and stores,
//!    branches, calls into a second domain, privileged instructions and
//!    raw words, run as several `Cpu::run` slices with a random host
//!    mutation (APL update, revocation, re-tag, protect, unmap/remap,
//!    code patch) between slices; and arbitrary bytes as code, which must
//!    never panic the host.

mod common;

use std::hash::{DefaultHasher, Hash, Hasher};
use std::process::Command;

use cdvm::isa::reg::*;
use cdvm::{Asm, CostModel, Cpu, Instr, RunExit, StepEvent};
use codoms::apl::{Apl, Perm};
use codoms::cap::{CapKind, Capability, RevocationTable};
use proptest::prelude::*;
use simmem::{DomainTag, Memory, PageFlags, TlbStats, PAGE_SIZE};

fn scratch(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("dipc-fastpath-diff-{}-{name}", std::process::id()));
    p.to_str().expect("utf-8 path").to_string()
}

fn mode_name(engine: bool) -> &'static str {
    if engine {
        "engine"
    } else {
        "oracle"
    }
}

fn run_fig5(engine: bool, trace: &str) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig5"));
    cmd.env_remove("BENCH_SCALE").env("DIPC_TRACE", trace);
    if engine {
        cmd.env_remove("CDVM_NO_FASTPATH");
    } else {
        cmd.env("CDVM_NO_FASTPATH", "1");
    }
    let out = cmd.output().expect("fig5 runs");
    assert!(out.status.success(), "fig5 failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Full-system cycle and trace identity between the oracle and the
/// engine: every simulated number fig5 prints (latencies, breakdowns) and
/// every trace byte must be unaffected by the host-side caches.
#[test]
fn fig5_identical_across_mode_matrix() {
    let runs: Vec<(bool, String, String)> = [false, true]
        .into_iter()
        .map(|engine| {
            let trace = scratch(&format!("{}.json", mode_name(engine)));
            (engine, run_fig5(engine, &trace), trace)
        })
        .collect();
    let read = |path: String| std::fs::read(&path).unwrap_or_else(|_| panic!("{path} written"));
    let summary = |trace: &str| {
        let bytes = read(format!("{trace}.summary.txt"));
        common::strip_host_counters(std::str::from_utf8(&bytes).expect("utf-8 summary"))
    };
    let (_, base_stdout, base_trace) = &runs[0];
    let (_, stdout, trace) = &runs[1];
    assert_eq!(stdout, base_stdout, "simulated results diverged");
    assert_eq!(read(trace.clone()), read(base_trace.clone()), "chrome trace diverged");
    assert_eq!(
        read(format!("{trace}.folded")),
        read(format!("{base_trace}.folded")),
        "folded trace diverged"
    );
    assert_eq!(summary(trace), summary(base_trace), "summary (sans host.*) diverged");
    for (_, _, trace) in &runs {
        for suffix in ["", ".folded", ".summary.txt"] {
            let _ = std::fs::remove_file(format!("{trace}{suffix}"));
        }
    }
}

/// Domain 1's code (two pages).
const CODE: u64 = 0x10_000;
/// Two data pages in domain 1; the page after them is unmapped.
const DATA: u64 = 0x20_000;
/// Domain 2's code page (mapped when the program has any).
const FAR: u64 = 0x40_000;
/// Never mapped.
const WILD: u64 = 0x9000_0000;

/// How domain 1 may enter domain 2's code page.
#[derive(Clone, Copy, Debug)]
enum Grant {
    /// Domain 1's APL grants domain 2 this permission.
    Apl(Perm),
    /// Capability register 0 holds a synchronous capability over the
    /// page, owned by the running thread, with this permission.
    Cap(Perm),
    /// Nothing grants the crossing.
    None,
}

/// A host-side mutation applied between two `Cpu::run` slices.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    /// `apl_cache.update` of domain `dom`'s APL to grant the other of
    /// domains 1 and 2 `perm`.
    Apl { dom: u32, perm: Perm },
    /// `rev.revoke_all` of the running thread.
    Revoke,
    /// Re-tags the page at `addr`.
    Retag { addr: u64, tag: u32 },
    /// Changes the protection of the page at `addr`.
    Protect { addr: u64, flags: PageFlags },
    /// Unmaps the first data page.
    UnmapData,
    /// Unmaps the first data page and maps a fresh zeroed frame there.
    RemapData,
    /// Kernel-writes one instruction word into domain 1's code.
    Patch { addr: u64, word: [u8; 8] },
}

/// A machine to run and how to run it.
#[derive(Clone, Debug)]
struct Program {
    /// Domain 1's code at `CODE`.
    code: Vec<u8>,
    code_flags: PageFlags,
    /// Domain 2's code at `FAR`; empty leaves the page unmapped.
    far: Vec<u8>,
    grant: Grant,
    /// Domain 2's APL permission toward domain 1 (returns, data).
    back: Perm,
    /// Initial register values.
    regs: Vec<(u8, u64)>,
    /// `Cpu::run` slices: the mutation applied before the slice and the
    /// slice's cycle budget. The run stops early at a fault or `Halt`.
    slices: Vec<(Option<Mutation>, u64)>,
}

impl Program {
    /// `code` alone on a read-execute page, run in one slice.
    fn new(code: Vec<u8>) -> Program {
        Program {
            code,
            code_flags: PageFlags::RX,
            far: Vec::new(),
            grant: Grant::None,
            back: Perm::Nil,
            regs: Vec::new(),
            slices: vec![(None, 10_000_000)],
        }
    }

    fn budget(mut self, cycles: u64) -> Program {
        self.slices = vec![(None, cycles)];
        self
    }
}

/// Observable end state of a CPU-level run.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// The event that ended the last slice.
    event: StepEvent,
    /// Every slice's exit.
    exits: Vec<RunExit>,
    cycles: u64,
    retired: u64,
    pc: u64,
    regs: [u64; 32],
    cur_dom: DomainTag,
    crossings: u64,
    itlb: TlbStats,
    dtlb: TlbStats,
    /// APL-cache `(hits, misses)`.
    apl: (u64, u64),
    /// Hash of the code and data pages (unmapped pages hash as absent).
    mem_hash: u64,
}

fn machine(engine: bool) -> (Memory, Cpu) {
    // The override is process-global and the harness runs tests on
    // parallel threads: hold a lock from setting it until both halves of
    // the machine have sampled it.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simmem::set_fastpath(Some(engine));
    let m = (Memory::new(), Cpu::new(0));
    simmem::set_fastpath(None);
    m
}

fn apl_granting(to: u32, perm: Perm) -> Apl {
    let mut apl = Apl::new();
    apl.set(DomainTag(to), perm);
    apl
}

/// Runs `p` on a fresh machine in the given mode through `Cpu::run` — so
/// the superblock engine engages — slice by slice, refilling APL misses
/// from the host's copy of each domain's APL the way the kernel does.
fn run_program(p: &Program, engine: bool) -> Outcome {
    let (mut mem, mut cpu) = machine(engine);
    let pt = Memory::GLOBAL_PT;
    mem.map_anon(pt, CODE, 2, p.code_flags, DomainTag(1));
    mem.kwrite(pt, CODE, &p.code).unwrap();
    mem.map_anon(pt, DATA, 2, PageFlags::RW, DomainTag(1));
    if !p.far.is_empty() {
        mem.map_anon(pt, FAR, 1, PageFlags::RX, DomainTag(2));
        mem.kwrite(pt, FAR, &p.far).unwrap();
    }
    cpu.pc = CODE;
    cpu.cur_dom = DomainTag(1);
    cpu.thread = 1;
    for &(r, v) in &p.regs {
        cpu.set_reg(r, v);
    }
    let mut apls = [Apl::new(), apl_granting(1, p.back)];
    match p.grant {
        Grant::Apl(perm) => apls[0] = apl_granting(2, perm),
        Grant::Cap(perm) => {
            cpu.caps[0] = Some(Capability {
                base: FAR,
                len: PAGE_SIZE,
                perm,
                kind: CapKind::Sync { owner: 1, epoch: 0 },
                origin: DomainTag(2),
            })
        }
        Grant::None => {}
    }
    cpu.apl_cache.fill(DomainTag(1), apls[0].clone());
    cpu.apl_cache.fill(DomainTag(2), apls[1].clone());

    let mut rev = RevocationTable::new();
    let cost = CostModel::default();
    let mut exits = Vec::new();
    for &(mutation, budget) in &p.slices {
        match mutation {
            None => {}
            Some(Mutation::Apl { dom, perm }) => {
                let apl = apl_granting(3 - dom, perm);
                cpu.apl_cache.update(DomainTag(dom), apl.clone());
                apls[dom as usize - 1] = apl;
            }
            Some(Mutation::Revoke) => rev.revoke_all(cpu.thread),
            Some(Mutation::Retag { addr, tag }) => {
                mem.table_mut(pt).set_tag(addr, DomainTag(tag));
            }
            Some(Mutation::Protect { addr, flags }) => {
                mem.table_mut(pt).protect(addr, flags);
            }
            Some(Mutation::UnmapData) => mem.unmap(pt, DATA, 1),
            Some(Mutation::RemapData) => {
                mem.unmap(pt, DATA, 1);
                mem.map_anon(pt, DATA, 1, PageFlags::RW, DomainTag(1));
            }
            Some(Mutation::Patch { addr, word }) => mem.kwrite(pt, addr, &word).unwrap(),
        }
        let exit = cpu.run(&mut mem, &mut rev, &cost, cpu.cycles + budget);
        exits.push(exit);
        match exit.event {
            StepEvent::Retired | StepEvent::Ecall => {}
            StepEvent::AplMiss(tag) => {
                let apl = match tag {
                    DomainTag(d @ 1..=2) => apls[d as usize - 1].clone(),
                    _ => Apl::new(),
                };
                cpu.apl_cache.fill(tag, apl);
            }
            StepEvent::Halt | StepEvent::Fault(_) => break,
        }
    }

    let mut h = DefaultHasher::new();
    for page in [CODE, CODE + PAGE_SIZE, DATA, DATA + PAGE_SIZE] {
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        mem.kread(pt, page, &mut buf).ok().map(|()| buf).hash(&mut h);
    }
    Outcome {
        event: exits.last().expect("at least one slice").event,
        exits,
        cycles: cpu.cycles,
        retired: cpu.retired,
        pc: cpu.pc,
        regs: cpu.regs,
        cur_dom: cpu.cur_dom,
        crossings: cpu.domain_crossings,
        itlb: cpu.itlb.stats(),
        dtlb: cpu.dtlb.stats(),
        apl: cpu.apl_cache.stats(),
        mem_hash: h.finish(),
    }
}

/// Runs `p` on the oracle and on the engine, asserts identical outcomes,
/// and returns the oracle's.
fn assert_identical(name: &str, p: &Program) -> Outcome {
    let oracle = run_program(p, false);
    let engine = run_program(p, true);
    assert_eq!(engine, oracle, "{name}: engine diverged from the oracle on {p:?}");
    oracle
}

#[test]
fn loops_and_data_traffic_are_cycle_identical() {
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.li(T3, 2000);
    a.label("loop");
    a.push(Instr::St { rs1: T0, rs2: T3, imm: 0 });
    a.push(Instr::Ld { rd: A0, rs1: T0, imm: 0 });
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: -1 });
    a.bne(T3, ZERO, "loop");
    a.push(Instr::Halt);
    assert_identical("st/ld loop", &Program::new(a.finish().bytes));
}

/// A cross-domain ping-pong loop (APL-granted in both directions) plus
/// data traffic: the crossing-descriptor cache and the memory-operand
/// translation cache both engage on the engine, and every simulated
/// observable — cycles, crossings, APL-cache traffic, TLB counters — must
/// match the oracle bit for bit.
#[test]
fn cross_domain_ping_pong_is_identical() {
    // Domain 1 at CODE: store/load on DATA, then jump into domain 2.
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.push(Instr::St { rs1: T0, rs2: T3, imm: 0 });
    a.push(Instr::Ld { rd: A0, rs1: T0, imm: 0 });
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: 1 });
    let here = a.here();
    a.push(Instr::Jal { rd: ZERO, imm: (FAR - (CODE + here)) as i32 });
    let mut p = Program::new(a.finish().bytes);
    // Domain 2 at FAR: bounded counter, then either jump back or halt.
    let mut a = Asm::new();
    a.push(Instr::Addi { rd: T4, rs1: T4, imm: 1 });
    a.li(T5, 500);
    a.beq(T4, T5, "done");
    let here = a.here();
    a.push(Instr::Jal { rd: ZERO, imm: (CODE as i64 - (FAR + here) as i64) as i32 });
    a.label("done");
    a.push(Instr::Halt);
    p.far = a.finish().bytes;
    p.grant = Grant::Apl(Perm::Read);
    p.back = Perm::Read;
    let base = assert_identical("cross-domain loop", &p.budget(50_000_000));
    assert_eq!(base.event, StepEvent::Halt, "workload must finish");
    assert!(base.crossings >= 999, "must actually cross domains: {base:?}");
}

#[test]
fn deadline_boundaries_are_identical() {
    // RunExit boundaries must land on the same instruction in both modes
    // (this is what keeps the kernel's slice schedules identical): sweep a
    // range of deadlines across a loop that a single block would overrun.
    let mut a = Asm::new();
    a.li(T0, DATA);
    a.li(T3, 5000);
    a.label("loop");
    a.push(Instr::St { rs1: T0, rs2: T3, imm: 0 });
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: -1 });
    a.bne(T3, ZERO, "loop");
    a.push(Instr::Halt);
    let p = Program::new(a.finish().bytes);
    for budget in [1u64, 7, 64, 65, 66, 100, 1000, 4999, 5001] {
        assert_identical(&format!("deadline {budget}"), &p.clone().budget(budget));
    }
}

#[test]
fn faults_are_identical() {
    // Division by zero mid-loop.
    let mut a = Asm::new();
    a.li(T0, 100);
    a.label("loop");
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: -1 });
    a.bne(T0, ZERO, "loop");
    a.push(Instr::Divu { rd: A0, rs1: T0, rs2: ZERO });
    assert_identical("div-zero", &Program::new(a.finish().bytes));

    // Run off into garbage bytes on a hot page (BadInstr).
    let mut a = Asm::new();
    a.li(T0, 50);
    a.label("loop");
    a.push(Instr::Addi { rd: T0, rs1: T0, imm: -1 });
    a.bne(T0, ZERO, "loop");
    let mut bytes = a.finish().bytes;
    bytes.extend_from_slice(&[0xEE; 8]);
    assert_identical("bad-instr", &Program::new(bytes));

    // Jump to an unmapped address.
    let mut a = Asm::new();
    a.li(T0, WILD);
    a.push(Instr::Jalr { rd: ZERO, rs1: T0, imm: 0 });
    assert_identical("jump-unmapped", &Program::new(a.finish().bytes));

    // Store to a read-execute page (protection fault).
    let mut a = Asm::new();
    a.li(T0, CODE);
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 0 });
    assert_identical("store-to-rx", &Program::new(a.finish().bytes));

    // Privileged instruction from unprivileged code, mid straight-line run.
    let mut a = Asm::new();
    a.push(Instr::Addi { rd: T0, rs1: ZERO, imm: 7 });
    a.push(Instr::Addi { rd: T1, rs1: ZERO, imm: 9 });
    a.push(Instr::Swapgs);
    a.push(Instr::Halt);
    assert_identical("privilege-mid-block", &Program::new(a.finish().bytes));
}

/// The icache-miss fetch path charges exactly what the pre-reuse code did:
/// one iTLB page-walk penalty for the cold page plus the base cost of each
/// instruction (regression guard for the single-translate miss path).
#[test]
fn miss_path_cycle_charges_are_unchanged() {
    let mut a = Asm::new();
    a.push(Instr::Nop);
    a.push(Instr::Halt);
    let p = Program::new(a.finish().bytes);
    let cost = CostModel::default();
    let expect = cost.tlb_miss + 2 * cost.base;
    for engine in [false, true] {
        let got = run_program(&p, engine);
        assert_eq!(got.event, StepEvent::Halt);
        assert_eq!(got.cycles, expect, "cold-page miss charge changed [{}]", mode_name(engine));
    }
}

#[test]
fn self_modifying_code_is_identical() {
    // The program overwrites its own upcoming instruction (a Movi imm
    // patch), exactly the shape of dIPC's runtime proxy patching; both
    // modes must execute the patched instruction.
    let patched = u64::from_le_bytes(Instr::Movi { rd: A0, imm: 222 }.encode());
    let mut a = Asm::new();
    // Warm the code page so the decoded block is hot before the patch.
    a.li(T3, 100);
    a.label("warm");
    a.push(Instr::Addi { rd: T3, rs1: T3, imm: -1 });
    a.bne(T3, ZERO, "warm");
    // Build the 8 patched bytes in T1 (movhi keeps only the low half of
    // rd, so a sign-extending movi for the low word is fine).
    a.push(Instr::Movi { rd: T1, imm: patched as u32 as i32 });
    a.push(Instr::Movhi { rd: T1, imm: (patched >> 32) as u32 as i32 });
    // The patch target sits 3 instructions past here(): movi, movhi, st.
    let patch_addr = CODE + a.here() + 3 * 8;
    a.push(Instr::Movi { rd: T0, imm: (patch_addr & 0xffff_ffff) as u32 as i32 });
    a.push(Instr::Movhi { rd: T0, imm: (patch_addr >> 32) as u32 as i32 });
    a.push(Instr::St { rs1: T0, rs2: T1, imm: 0 });
    a.push(Instr::Movi { rd: A0, imm: 111 }); // overwritten by the store
    a.push(Instr::Halt);
    // The page must be writable as well as executable for the self-patch.
    let mut p = Program::new(a.finish().bytes);
    p.code_flags = PageFlags::RWX;
    let base = assert_identical("self-modifying program", &p);
    assert_eq!(base.event, StepEvent::Halt);
    assert_eq!(base.regs[A0 as usize], 222, "patched instruction must execute");
}

// ---------------------------------------------------------------------
// Generated programs. Domain 1's body runs `LOOPS` times around an outer
// loop, so calls, data accesses and branches repeat and the engine's
// caches (blocks, chain hints, crossing descriptors, dcache entries) are
// warm when a mutation lands between slices.
// ---------------------------------------------------------------------

/// Outer-loop iterations of a generated body.
const LOOPS: i32 = 64;
/// Registers generated ALU ops and loads may write: never the base
/// registers `S0`–`S4`, the patch word `T6`, the loop counter `S11` or
/// `RA`.
const ALU_RD: [u8; 10] = [A0, A1, A2, A3, A4, A5, T0, T1, T2, T3];
const PERMS: [Perm; 4] = [Perm::Nil, Perm::Call, Perm::Read, Perm::Write];
/// Entry offsets into domain 2's page: the three 64-byte-aligned callee
/// bodies and two unaligned points inside them.
const ENTRIES: [i32; 5] = [0, 64, 128, 8, 72];
/// Instruction slots per callee body (the last one returns).
const CALLEE_SLOTS: usize = 8;

/// One generated guest operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A register-to-register or immediate ALU instruction.
    Alu(Instr),
    /// A load or store of 8 bytes (`wide`) or 1 at `base + off`; stores
    /// write `value`.
    Mem { store: bool, wide: bool, base: u8, off: i32, rd: u8, value: u8 },
    /// Conditional branch `k` instructions forward or backward (wrapped
    /// into the body by [`assemble`]).
    Branch { cond: u8, rs1: u8, rs2: u8, k: i32 },
    /// Call into domain 2 at `FAR + ENTRIES[entry]`, by `Jal` or by
    /// `Jalr` through `S2`.
    Call { indirect: bool, entry: usize },
    /// A privileged instruction (unprivileged here, so it faults).
    Privileged(Instr),
    /// Eight raw bytes.
    Raw([u8; 8]),
}

impl Op {
    /// Encodes the op placed `at` bytes into domain 1's code.
    fn encode(self, at: u64) -> [u8; 8] {
        match self {
            Op::Alu(i) | Op::Privileged(i) => i.encode(),
            Op::Mem { store, wide, base: rs1, off, rd, value } => match (store, wide) {
                (false, true) => Instr::Ld { rd, rs1, imm: off },
                (false, false) => Instr::Ldb { rd, rs1, imm: off },
                (true, true) => Instr::St { rs1, rs2: value, imm: off },
                (true, false) => Instr::Stb { rs1, rs2: value, imm: off },
            }
            .encode(),
            Op::Branch { cond, rs1, rs2, k } => {
                let imm = k * 8;
                match cond {
                    0 => Instr::Beq { rs1, rs2, imm },
                    1 => Instr::Bne { rs1, rs2, imm },
                    2 => Instr::Bltu { rs1, rs2, imm },
                    _ => Instr::Bgeu { rs1, rs2, imm },
                }
                .encode()
            }
            Op::Call { indirect: true, entry } => {
                Instr::Jalr { rd: RA, rs1: S2, imm: ENTRIES[entry] }.encode()
            }
            Op::Call { indirect: false, entry } => {
                let target = FAR + ENTRIES[entry] as u64;
                Instr::Jal { rd: RA, imm: (target as i64 - (CODE + at) as i64) as i32 }.encode()
            }
            Op::Raw(w) => w,
        }
    }
}

fn alu() -> impl Strategy<Value = Op> {
    (0u8..16, 0..ALU_RD.len(), 0u8..32, 0u8..32, any::<i32>()).prop_map(|(k, rd, rs1, rs2, imm)| {
        let rd = ALU_RD[rd];
        Op::Alu(match k {
            0 => Instr::Add { rd, rs1, rs2 },
            1 => Instr::Sub { rd, rs1, rs2 },
            2 => Instr::Mul { rd, rs1, rs2 },
            3 => Instr::And { rd, rs1, rs2 },
            4 => Instr::Or { rd, rs1, rs2 },
            5 => Instr::Xor { rd, rs1, rs2 },
            6 => Instr::Sll { rd, rs1, rs2 },
            7 => Instr::Srl { rd, rs1, rs2 },
            8 => Instr::Sltu { rd, rs1, rs2 },
            9 => Instr::Addi { rd, rs1, imm },
            10 => Instr::Andi { rd, rs1, imm },
            11 => Instr::Ori { rd, rs1, imm },
            12 => Instr::Slli { rd, rs1, imm },
            13 => Instr::Srli { rd, rs1, imm },
            14 => Instr::Movi { rd, imm },
            _ => Instr::Movhi { rd, imm },
        })
    })
}

/// Loads and stores, mostly through `data` (`S0` = `DATA` for domain 1,
/// `S4` = `DATA + PAGE_SIZE` for domain 2, so neither domain's dcache
/// entries evict the other's): in range, straddling the boundary between
/// the two data pages or past them into unmapped memory; else into
/// domain 1's code through `S1` (self-modifying when a store), domain 2's
/// page through `S2`, or wild through `S3`.
fn mem_op(data: u8) -> impl Strategy<Value = Op> {
    (any::<bool>(), any::<bool>(), 0u16..1000, 0u16..100, 0u32..1024, 0..ALU_RD.len(), 0u8..4)
        .prop_map(move |(store, wide, base, place, r, rd, value)| {
            // Accesses that always fault (wild, or straddling off the
            // mapped data) are rare.
            let base = match base {
                0..=799 => data,
                800..=919 => S1,
                920..=994 => S2,
                _ => S3,
            };
            let page = PAGE_SIZE as i32;
            let first = if base == S0 { 0 } else { -page };
            let off = match (base, place) {
                (S1, _) => (r as i32 % 48) * 8,
                (S2, _) => (r as i32 % 24) * 8,
                (S3, _) => r as i32,
                (_, 0..=9) => first + page - 4,
                (_, 10) => first + 2 * page - 4,
                _ => (r as i32 % 512) * 8,
            };
            // Domain 2's page is read-execute: only load from it.
            let store = store && base != S2;
            // Self-modifying stores mostly write the instruction word.
            let value = if value == 0 { A0 } else { T6 };
            Op::Mem { store, wide, base, off, rd: ALU_RD[rd], value }
        })
}

fn branch() -> impl Strategy<Value = Op> {
    (0u8..4, 0u8..32, 0u8..32, 1i32..=6, any::<bool>()).prop_map(|(cond, rs1, rs2, k, back)| {
        Op::Branch { cond, rs1, rs2, k: if back { -k } else { k } }
    })
}

/// Calls mostly hit the aligned entries (the unaligned ones fault under
/// a `Call` grant).
fn call() -> impl Strategy<Value = Op> {
    (any::<bool>(), 0usize..16).prop_map(|(indirect, k)| Op::Call {
        indirect,
        entry: match k {
            0 => 3,
            1 => 4,
            k => k % 3,
        },
    })
}

fn privileged() -> impl Strategy<Value = Op> {
    (0u8..4, 0u8..32).prop_map(|(k, r)| {
        Op::Privileged(match k {
            0 => Instr::Swapgs,
            1 => Instr::Wrgs { rs1: r },
            2 => Instr::PtSwitch { rs1: r },
            _ => Instr::TagLookup { rd: A0, rs1: r },
        })
    })
}

/// A word as patched into code: a generated ALU instruction, `Halt`, or
/// raw bytes.
fn word() -> impl Strategy<Value = [u8; 8]> {
    prop_oneof![
        alu().prop_map(|op| op.encode(0)),
        alu().prop_map(|op| op.encode(0)),
        Just(Instr::Halt.encode()),
        any::<u64>().prop_map(u64::to_le_bytes),
    ]
}

/// Draws one op by weight (per mille): ALU, memory, branch, call,
/// privileged, raw. Every op of a body runs on every loop iteration, so
/// ops that always fault stay rare: most programs must run long enough
/// for mutations to land on warm caches.
fn weighted(w: [u32; 6], data: u8) -> impl Strategy<Value = Op> {
    (0..w.iter().sum::<u32>(), alu(), mem_op(data), branch(), call(), privileged(), word())
        .prop_map(move |(mut pick, alu, mem, branch, call, privileged, raw)| {
            for (weight, op) in
                w.into_iter().zip([alu, mem, branch, call, privileged, Op::Raw(raw)])
            {
                if pick < weight {
                    return op;
                }
                pick -= weight;
            }
            unreachable!("pick is below the weight sum")
        })
}

/// Domain 1's ops.
fn op() -> impl Strategy<Value = Op> {
    weighted([380, 330, 100, 170, 5, 15], S0)
}

/// Domain 2's ops: no branches or calls.
fn callee_op() -> impl Strategy<Value = Op> {
    weighted([700, 270, 0, 0, 10, 20], S4)
}

/// APL updates and revocations — the changes that invalidate cached
/// CODOMs decisions without touching the page tables — weigh triple.
fn mutation() -> impl Strategy<Value = Mutation> {
    const PAGES: [u64; 3] = [CODE, DATA, FAR];
    const FLAGS: [PageFlags; 5] =
        [PageFlags::NONE, PageFlags::READ, PageFlags::RW, PageFlags::RX, PageFlags::RWX];
    (0u8..11, 1u32..=2, 0..PERMS.len(), 0..PAGES.len(), 1u32..=3, 0..FLAGS.len(), 0u64..48, word())
        .prop_map(|(k, dom, perm, page, tag, flags, slot, word)| match k {
            0..=2 => Mutation::Apl { dom, perm: PERMS[perm] },
            3..=5 => Mutation::Revoke,
            6 => Mutation::Retag { addr: PAGES[page], tag },
            7 => Mutation::Protect { addr: PAGES[page], flags: FLAGS[flags] },
            8 => Mutation::UnmapData,
            9 => Mutation::RemapData,
            _ => Mutation::Patch { addr: CODE + slot * 8, word },
        })
}

/// Mostly APL or capability grants; an ungranted domain 2 ends the
/// program at its first call.
fn grant() -> impl Strategy<Value = Grant> {
    (0u8..9, 1usize..3).prop_map(|(k, p)| match k {
        0 => Grant::None,
        1..=4 => Grant::Apl(PERMS[p]),
        _ => Grant::Cap(PERMS[p]),
    })
}

/// Domain 2's permission toward domain 1: returns need at least `Read`
/// and stores `Write`, so the weaker grants are rarer.
fn back() -> impl Strategy<Value = Perm> {
    (0u8..12).prop_map(|k| PERMS[[0, 1, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3][k as usize]])
}

/// Slices with random budgets, each after the first preceded by a random
/// mutation, then a long final slice to drain the program.
fn slices() -> impl Strategy<Value = Vec<(Option<Mutation>, u64)>> {
    prop::collection::vec((mutation().prop_map(Some), 1u64..300), 2..16).prop_map(|mut s| {
        s[0].0 = None;
        s.push((None, 30_000));
        s
    })
}

/// Initial registers: the base registers, the patch word in `T6`, and a
/// nonzero pattern everywhere else.
fn init_regs(t6: [u8; 8]) -> Vec<(u8, u64)> {
    let mut regs: Vec<(u8, u64)> =
        (1..32u8).map(|r| (r, (r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40)).collect();
    regs.extend([
        (S0, DATA),
        (S1, CODE),
        (S2, FAR),
        (S3, WILD),
        (S4, DATA + PAGE_SIZE),
        (T6, u64::from_le_bytes(t6)),
    ]);
    regs
}

/// Domain 1's code: `Movi S11, LOOPS`, the body, the outer-loop
/// decrement and branch, `Halt`.
fn assemble(body: &[Op]) -> Vec<u8> {
    let mut code = Instr::Movi { rd: S11, imm: LOOPS }.encode().to_vec();
    let n = body.len() as i32;
    for (i, &op) in body.iter().enumerate() {
        let op = match op {
            Op::Branch { cond, rs1, rs2, k } => {
                let i = i as i32;
                Op::Branch { cond, rs1, rs2, k: (i + k).rem_euclid(n) - i }
            }
            op => op,
        };
        code.extend(op.encode((i as u64 + 1) * 8));
    }
    let back = -(n + 1) * 8;
    code.extend(Instr::Addi { rd: S11, rs1: S11, imm: -1 }.encode());
    code.extend(Instr::Bne { rs1: S11, rs2: ZERO, imm: back }.encode());
    code.extend(Instr::Halt.encode());
    code
}

/// Domain 2's page: three callee bodies at 64-byte-aligned entries, each
/// returning through `RA`.
fn assemble_callee(bodies: &[Vec<Op>]) -> Vec<u8> {
    let mut far = Vec::new();
    for body in bodies {
        let start = far.len();
        for op in body.iter().take(CALLEE_SLOTS - 1) {
            far.extend(op.encode(0));
        }
        far.extend(Instr::Jalr { rd: ZERO, rs1: RA, imm: 0 }.encode());
        far.resize(start + CALLEE_SLOTS * 8, 0);
    }
    far
}

fn callees() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(callee_op(), 0..CALLEE_SLOTS), 3)
}

/// Words for the arbitrary-bytes property: mostly a known or unknown
/// opcode with in-range register fields and a random or small immediate,
/// else eight random bytes.
fn raw_word() -> impl Strategy<Value = [u8; 8]> {
    prop_oneof![
        (0u8..64, 0u8..32, 0u8..32, 0u8..32, any::<i32>()).prop_map(|(op, rd, rs1, rs2, imm)| {
            let mut w = [op, rd, rs1, rs2, 0, 0, 0, 0];
            w[4..].copy_from_slice(&imm.to_le_bytes());
            w
        }),
        (0u8..64, 0u8..32, 0u8..32, 0u8..32, -64i32..64).prop_map(|(op, rd, rs1, rs2, imm)| {
            let mut w = [op, rd, rs1, rs2, 0, 0, 0, 0];
            w[4..].copy_from_slice(&(imm * 8).to_le_bytes());
            w
        }),
        any::<u64>().prop_map(u64::to_le_bytes),
    ]
}

proptest! {
    /// Generated two-domain programs, each under three schedules of host
    /// mutations between slices: the oracle and the engine agree on every
    /// slice exit, all 32 registers, TLB and APL-cache telemetry, and the
    /// memory contents.
    #[test]
    fn generated_programs_are_identical(
        body in prop::collection::vec(op(), 1..24),
        callee in callees(),
        grant in grant(),
        back in back(),
        t6 in word(),
        schedules in prop::collection::vec(slices(), 3),
    ) {
        for slices in schedules {
            let p = Program {
                code: assemble(&body),
                code_flags: PageFlags::RWX,
                far: assemble_callee(&callee),
                grant,
                back,
                regs: init_regs(t6),
                slices,
            };
            assert_identical("generated", &p);
        }
    }

    /// Arbitrary bytes as code, in both domains: the host never panics and
    /// both modes end in the same outcome. Words are mostly well-formed
    /// opcodes with random operands (so they execute), the rest fully
    /// random.
    #[test]
    fn arbitrary_code_never_panics_and_is_identical(
        code in prop::collection::vec(raw_word(), 1..64),
        far in prop::collection::vec(raw_word(), 1..32),
        grant in grant(),
        back in back(),
        slices in slices(),
    ) {
        let p = Program {
            code: code.concat(),
            code_flags: PageFlags::RWX,
            far: far.concat(),
            grant,
            back,
            regs: init_regs([0; 8]),
            slices,
        };
        assert_identical("arbitrary", &p);
    }
}
