"""tlpsim-audit — semantic static-analysis suite for tlpsim.

Five repo-specific checkers over every .cc/.hh file under src/, each
expressing an invariant the paper's figures depend on but that generic
lint (clang-tidy, -Werror) cannot:

  determinism  no nondeterminism sources in simulation code: wall-clock
               reads, rand()/random_device, pointer-keyed ordered
               containers, iteration over unordered containers.
  layering     the module include graph is the declared DAG
               (common <- {mem,trace,tlb,prefetch,cache,offchip,filter,
               tracefile,workloads,core} <- sim <- cli, with store a
               leaf both sim and cli may use).
  schema       every field of a registered component's Params struct
               is bound by an entry of its ParamSchema, so it can be
               swept and shows in --knobs (the binding itself fixes
               each knob's type, default and extraction).
  reset        every registry-built component initializes each scalar
               data member at its declaration (NSDMI) or in a
               constructor init list, so memoized Runner reuse can
               never observe stale state.
  hotpath      no allocation construct (new, std::function, node-based
               containers, string construction, unwaived container
               growth) between `// tlpsim:hot` and `// tlpsim:endhot`
               markers, and every region is closed exactly once.

Any finding can be waived at the offending line (or the line above)
with

    // tlpsim:waive(<check>) <reason>

where <reason> is mandatory: a reason-less waiver is itself a finding.
Of hotpath's findings only container growth can be waived.

The suite is dependency-free Python over the source text: it needs
neither a configured build tree nor libclang or the clang python
bindings.

Run it from the repository root:

    python3 -m tools.tlpsim_audit --werror
"""

CHECKS = ("determinism", "layering", "schema", "reset", "hotpath")
