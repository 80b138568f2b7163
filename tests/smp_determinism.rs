//! Differential proof that the engine layers do not perturb multi-CPU
//! execution: four CPUs run on one shared [`Memory`] the way the kernel's
//! `run_cpu` drives them — one `Cpu::run` slice per CPU in turn — and the
//! full observable outcome (architectural state, memory, traces) is
//! byte-identical on the interpreter oracle and on the full engine.
//!
//! The workload is deliberately adversarial: all CPUs hammer the same
//! shared page (including the *same byte*), write per-CPU slots 8 bytes
//! apart, and skew their cycle counts with CPU-dependent work so slice
//! boundaries never line up.

mod common;

use cdvm::isa::reg::*;
use cdvm::{Asm, CostModel, Cpu, Instr, StepEvent};
use codoms::cap::RevocationTable;
use simmem::{DomainTag, Memory, PageFlags, PAGE_SIZE};

const CODE: u64 = 0x10_000;
const SHARED: u64 = 0x20_000;
const PRIVATE: u64 = 0x30_000;

/// Per-CPU program: 50 iterations of conflicting + private stores with
/// CPU-dependent cycle skew, then `Halt`.
fn program() -> Vec<u8> {
    let mut a = Asm::new();
    a.push(Instr::CpuId { rd: S0 }); // s0 = cpu index
    a.li(S1, SHARED);
    a.li(S2, PRIVATE);
    // s3 = &private[cpu]; s4 = &shared.slot[cpu] (8 bytes apart).
    a.push(Instr::Slli { rd: T0, rs1: S0, imm: 12 });
    a.push(Instr::Add { rd: S3, rs1: S2, rs2: T0 });
    a.push(Instr::Slli { rd: T0, rs1: S0, imm: 3 });
    a.push(Instr::Add { rd: S4, rs1: S1, rs2: T0 });
    a.li(S5, 50); // loop counter
    a.label("loop");
    // Same-byte conflict: every CPU stores its index to shared+0.
    a.push(Instr::Stb { rs1: S1, rs2: S0, imm: 0 });
    // Adjacent per-CPU slots: byte-granular merge must keep all of them.
    a.push(Instr::St { rs1: S4, rs2: S5, imm: 64 });
    // Private accumulation.
    a.push(Instr::Ld { rd: T1, rs1: S3, imm: 0 });
    a.push(Instr::Add { rd: T1, rs1: T1, rs2: S5 });
    a.push(Instr::St { rs1: S3, rs2: T1, imm: 0 });
    // CPU-dependent cycle skew so slice boundaries interleave unevenly.
    a.push(Instr::Slli { rd: T2, rs1: S0, imm: 7 });
    a.push(Instr::Work { rs1: T2, imm: 64 });
    a.push(Instr::Addi { rd: S5, rs1: S5, imm: -1 });
    a.bne(S5, ZERO, "loop");
    a.push(Instr::Halt);
    a.finish().bytes
}

fn build_mem(cpus: usize) -> Memory {
    let mut mem = Memory::new();
    let pt = Memory::GLOBAL_PT;
    mem.map_anon(pt, CODE, 1, PageFlags::RX, DomainTag(1));
    mem.kwrite(pt, CODE, &program()).unwrap();
    mem.map_anon(pt, SHARED, 1, PageFlags::RW, DomainTag(1));
    mem.map_anon(pt, PRIVATE, cpus as u64, PageFlags::RW, DomainTag(1));
    mem
}

fn init_cpu(cpu: &mut Cpu, i: usize) {
    cpu.pc = CODE;
    cpu.cur_dom = DomainTag(1);
    cpu.thread = 1 + i as u64;
}

/// Full observable fingerprint: per-CPU architectural state plus the
/// shared and private pages.
fn fingerprint(cpus: &[Cpu], mem: &Memory) -> String {
    let mut s = String::new();
    for c in cpus {
        s.push_str(&format!(
            "cpu{} pc={:#x} cycles={} retired={} crossings={} regs={:?}\n",
            c.index, c.pc, c.cycles, c.retired, c.domain_crossings, c.regs
        ));
    }
    let mut buf = vec![0u8; PAGE_SIZE as usize];
    mem.kread(Memory::GLOBAL_PT, SHARED, &mut buf).unwrap();
    s.push_str(&format!("shared={buf:?}\n"));
    for i in 0..cpus.len() {
        mem.kread(Memory::GLOBAL_PT, PRIVATE + i as u64 * PAGE_SIZE, &mut buf).unwrap();
        s.push_str(&format!("private{i}={buf:?}\n"));
    }
    s
}

/// Runs the workload on four CPUs sharing one [`Memory`]: every round gives
/// each live CPU one `Cpu::run` slice of 10 000 cycles, in CPU-index order,
/// until all of them halt. Returns the fingerprint.
fn run_slices() -> String {
    const CPUS: usize = 4;
    let mut mem = build_mem(CPUS);
    let mut cpus: Vec<Cpu> = (0..CPUS).map(Cpu::new).collect();
    for (i, cpu) in cpus.iter_mut().enumerate() {
        init_cpu(cpu, i);
    }
    let mut rev = RevocationTable::new();
    let cost = CostModel::default();
    let mut halted = [false; CPUS];
    for _ in 0..10_000 {
        for (cpu, h) in cpus.iter_mut().zip(&mut halted).filter(|(_, h)| !**h) {
            let exit = cpu.run(&mut mem, &mut rev, &cost, cpu.cycles + 10_000);
            *h = exit.event == StepEvent::Halt;
            assert!(*h || exit.event == StepEvent::Retired, "unexpected {:?}", exit.event);
        }
        if halted.iter().all(|&h| h) {
            break;
        }
    }
    assert!(halted.iter().all(|&h| h), "workload must finish");
    fingerprint(&cpus, &mem)
}

/// The engine switch (`simmem::set_fastpath`) is process-global; every
/// test that sets it holds this lock so a concurrent change can't split a
/// comparison pair across modes.
static MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` with CPUs and memory constructed in the given engine mode.
fn in_mode<T>(engine: bool, f: impl FnOnce() -> T) -> T {
    simmem::set_fastpath(Some(engine));
    let out = f();
    simmem::set_fastpath(None);
    out
}

/// The engine must not perturb multi-CPU execution: the 4-CPU fingerprint
/// — architectural state and shared memory — is byte-identical on the
/// interpreter oracle and on the full engine (superblocks, crossing
/// descriptors, direct-threaded dispatch, data-operand cache).
#[test]
fn n4_identical_with_and_without_block_engine() {
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let oracle = in_mode(false, run_slices);
    let engine = in_mode(true, run_slices);
    assert_eq!(oracle, engine, "the engine changed the 4-CPU outcome");
}

/// Same oracle-versus-engine identity for the exported traces: the Chrome
/// JSON and folded streams are byte-identical; the metrics summary is
/// identical once the mode-dependent `host.*` cache counters are dropped.
#[test]
fn n4_traces_identical_with_and_without_block_engine() {
    let run = |engine: bool| {
        in_mode(engine, || {
            simtrace::enable("/dev/null");
            let fp = run_slices();
            let (json, folded, summary) = simtrace::render();
            simtrace::disable();
            (fp, json, folded, common::strip_host_counters(&summary))
        })
    };
    let _g = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let oracle = run(false);
    let engine = run(true);
    assert_eq!(oracle.0, engine.0, "architectural fingerprint diverged");
    assert_eq!(oracle.1, engine.1, "chrome trace diverged");
    assert_eq!(oracle.2, engine.2, "folded trace diverged");
    assert_eq!(oracle.3, engine.3, "summary (sans host.*) diverged");
}
