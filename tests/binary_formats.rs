//! Integration of the binary layers: assemble → encode → image →
//! decode → simulate, all through the public facade.

use vpir::core::{CoreConfig, IrConfig, RunLimits, Simulator};
use vpir::isa::{asm, encoding, image, Machine, Reg};

const SRC: &str = "
        .data 0x200000
 tbl:   .word 11, 22, 33, 44
        .text
        li   r6, 60
 loop:  andi r7, r6, 3
        sll  r7, r7, 2
        la   r8, tbl
        add  r8, r8, r7
        lw   r9, 0(r8)
        add  r20, r20, r9
        addi r6, r6, -1
        bne  r6, r0, loop
        halt";

#[test]
fn assembled_programs_are_fully_encodable() {
    let prog = asm::assemble(SRC).expect("assembles");
    let words = encoding::encode_program(&prog.insts, prog.text_base)
        .expect("assembler output must always encode");
    assert_eq!(words.len(), prog.insts.len());
}

#[test]
fn image_roundtrip_simulates_identically_on_the_pipeline() {
    let prog = asm::assemble(SRC).expect("assembles");
    let bytes = image::write(&prog).expect("image writes");
    let reloaded = image::read(&bytes).expect("image reads");

    let mut a = Simulator::new(&prog, CoreConfig::with_ir(IrConfig::table1()));
    let mut b = Simulator::new(&reloaded, CoreConfig::with_ir(IrConfig::table1()));
    for sim in [&mut a, &mut b] {
        sim.run_to_halt(RunLimits::cycles(1_000_000))
            .unwrap_or_else(|e| panic!("{e}"));
    }
    assert_eq!(a.stats().cycles, b.stats().cycles, "timing must be identical");
    assert_eq!(a.stats().reused_full, b.stats().reused_full);
    for i in 0..vpir::isa::NUM_REGS {
        let r = Reg::from_index(i);
        assert_eq!(a.arch_regs().read(r), b.arch_regs().read(r), "{r}");
    }
}

#[test]
fn disassembly_reassembles_to_the_same_program() {
    let prog = asm::assemble(SRC).expect("assembles");
    // Strip addresses: keep labels and instruction text.
    let listing = prog.disassemble();
    let mut source = String::new();
    for line in listing.lines() {
        let line = line.trim();
        if line.ends_with(':') {
            source.push_str(line);
            source.push('\n');
        } else if let Some((_, inst)) = line.split_once(":  ") {
            source.push_str("        ");
            source.push_str(inst);
            source.push('\n');
        }
    }
    let again = asm::assemble(&source).expect("disassembly must reassemble");
    assert_eq!(again.insts, prog.insts);
}

#[test]
fn large_immediates_expand_and_still_run_correctly() {
    // Values spanning each li expansion class (1, 2, 4 and 6 words).
    let src = "
        li   r1, 100
        li   r2, 0x12345
        li   r3, -5000000
        li   r4, 0x123456789abcdef0
        add  r20, r1, r2
        halt";
    let prog = asm::assemble(src).expect("assembles");
    encoding::encode_program(&prog.insts, prog.text_base).expect("all encodable");
    let mut m = Machine::new(&prog);
    m.run(100).expect("runs");
    assert_eq!(m.regs.read(Reg::int(1)), 100);
    assert_eq!(m.regs.read(Reg::int(2)), 0x12345);
    assert_eq!(m.regs.read(Reg::int(3)) as i64, -5_000_000);
    assert_eq!(m.regs.read(Reg::int(4)), 0x1234_5678_9abc_def0);
}
