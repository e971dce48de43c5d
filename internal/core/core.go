// Package core implements the relational matrix algebra (RMA) — the
// primary contribution of "A Relational Matrix Algebra and its
// Implementation in a Column Store" (SIGMOD 2020).
//
// RMA extends the relational model with nineteen relational matrix
// operations (emu, mmu, opd, cpd, add, sub, tra, sol, inv, evc, evl, qqr,
// rqr, dsv, usv, vsv, det, rnk, chf). Each operation takes one or two
// relations together with an order schema per argument. The order schema
// U ⊆ R must form a key and imposes the row order for the matrix
// operation; the remaining attributes Ū form the application schema and
// must be numeric. The operation computes the matrix operation over the
// application part ordered by U (the base result) and returns a relation
// that combines the base result with contextual information — row and
// column origins — morphed from the inputs according to the operation's
// shape type (paper Tables 1-3). The algebra is closed: relations in,
// relations out.
//
// Execution follows the paper's Algorithm 1: split the argument's BATs
// into order and application lists, sort by the order schema, morph the
// contextual information, evaluate the matrix kernel, and merge. Unary
// and Binary share one driver for it (run, rma.go), and everything the
// driver knows about an operation — arity, shape type, sort need,
// argument requirements, BAT and dense kernels — is the operation's one
// row of the operation table (opTable, op.go). Two independent execution
// knobs reproduce the paper's ablations:
//
//   - Policy selects between the no-copy column-at-a-time kernels of
//     internal/batlin (RMA+BAT) and the dense kernels of internal/linalg
//     (RMA+MKL), which run on float columns: the ordered application
//     columns in place for the kernels that only read them, one arena
//     copy of them for the kernels that factor or rewrite their operand,
//     and the kernels' arena result columns become the result's BATs.
//     PolicyAuto mirrors the paper: the elementwise family runs on BATs,
//     everything else is delegated.
//     The BAT kernels of ADD, SUB and EMU read each argument through
//     its sort permutation instead of gathering it first.
//   - SortMode enables the Section 8.1 optimizations: operations whose
//     base result is invariant or equivariant under row permutation skip
//     sorting entirely, and binary elementwise operations sort only the
//     second argument relative to the first.
package core
