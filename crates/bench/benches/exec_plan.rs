//! Plan engine vs. reference tree-walk on §6-shaped work: per-run
//! concrete execution, full outcome enumeration of a branching freeze
//! function, and an all-inputs sweep of a generated i2 function — the
//! shapes whose throughput *is* campaign throughput.

use frost_bench::Runner;
use frost_core::exec::reference;
use frost_core::{uninit_fill, Limits, Machine, Memory, ModulePlan, Semantics, Val};
use frost_fuzz::{enumerate_functions, GenConfig};
use frost_ir::{parse_module, Module};
use frost_refine::{enumerate_inputs, InputOptions};

fn main() {
    let r = Runner::new();
    let sem = Semantics::proposed();
    let limits = Limits::default();

    // Concrete execution: an i8 summation loop (hundreds of steps),
    // plan compiled once and reference walking the tree every run.
    let loop_mod = parse_module(
        r#"
define i8 @sum(i8 %n) {
entry:
  br label %head
head:
  %i = phi i8 [ 0, %entry ], [ %i1, %body ]
  %s = phi i8 [ 0, %entry ], [ %s1, %body ]
  %c = icmp ult i8 %i, %n
  br i1 %c, label %body, label %exit
body:
  %s1 = add i8 %s, %i
  %i1 = add i8 %i, 1
  br label %head
exit:
  ret i8 %s
}
"#,
    )
    .expect("parses");
    let args = [Val::int(8, 200)];
    let mem = Memory::zeroed(0);
    let plan = ModulePlan::compile(&loop_mod, sem);
    let idx = plan.function_index("sum").unwrap();
    let mut machine = Machine::new();
    r.bench("plan_sum_loop_200", || {
        plan.run_concrete(idx, &args, &mem, limits, &mut machine)
            .expect("runs")
    });
    r.bench("reference_sum_loop_200", || {
        reference::run_concrete(&loop_mod, "sum", &args, &mem, sem, limits).expect("runs")
    });

    // Enumeration with forking: two freezes of poison (16 leaves). The
    // plan resumes siblings from snapshots; the reference restarts.
    let freeze_mod = parse_module(
        "define i2 @f() {\nentry:\n  %a = freeze i2 poison\n  %b = freeze i2 poison\n  %c = add i2 %a, %b\n  ret i2 %c\n}",
    )
    .expect("parses");
    let fplan = ModulePlan::compile(&freeze_mod, sem);
    let fidx = fplan.function_index("f").unwrap();
    r.bench("plan_enumerate_two_freezes", || {
        fplan
            .enumerate(fidx, &[], &mem, limits, &mut machine)
            .expect("enumerates")
            .len()
    });
    r.bench("reference_enumerate_two_freezes", || {
        reference::enumerate_outcomes(
            &freeze_mod,
            &freeze_mod.functions[0],
            &[],
            &mem,
            sem,
            limits,
        )
        .expect("enumerates")
        .len()
    });

    // The §6 inner loop: one generated function, all enumerated inputs.
    // Compilation is inside the plan benchmark — this is the per-new-
    // function cost a campaign pays, amortized over the input sweep.
    let f = enumerate_functions(GenConfig::arithmetic(2))
        .nth(12_345)
        .expect("space is larger than that");
    let name = f.name.clone();
    let (tuples, block_sizes) = enumerate_inputs(&f, &InputOptions::new()).expect("enumerable");
    let fuzz_mem = Memory::with_initial_blocks(&block_sizes, uninit_fill(&sem));
    let mut module = Module::new();
    module.functions.push(f);
    r.bench("plan_section6_fn_all_inputs", || {
        let plan = ModulePlan::compile(&module, sem);
        let idx = plan.function_index(&name).unwrap();
        tuples
            .iter()
            .map(|args| {
                plan.enumerate(idx, args, &fuzz_mem, limits, &mut machine)
                    .expect("enumerates")
                    .len()
            })
            .sum::<usize>()
    });
    r.bench("reference_section6_fn_all_inputs", || {
        tuples
            .iter()
            .map(|args| {
                reference::enumerate_outcomes(
                    &module,
                    &module.functions[0],
                    args,
                    &fuzz_mem,
                    sem,
                    limits,
                )
                .expect("enumerates")
                .len()
            })
            .sum::<usize>()
    });
}
