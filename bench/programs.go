package main

// Datalog sources of the benchmark's programs, pinned here so that an edit
// to internal/programs or programs/*.datalog cannot move the benchmark.

// progTC is transitive closure: one linear recursive rule, binary tuples.
const progTC = `
tc(x, y) :- arc(x, y).
tc(x, y) :- tc(x, z), arc(z, y).
`

// progCC is connected components by recursive MIN label propagation.
const progCC = `
cc3(x, MIN(x)) :- arc(x, _).
cc3(y, MIN(z)) :- cc3(x, z), arc(x, y).
cc2(x, MIN(y)) :- cc3(x, y).
cc(x) :- cc2(_, x).
`

// progCSPA is Graspan's context-sensitive points-to analysis: three mutually
// recursive IDBs, non-linear 3-atom bodies, valueFlow joined on column 0 in
// some rules and column 1 in others.
const progCSPA = `
valueFlow(y, x) :- assign(y, x).
valueFlow(x, y) :- assign(x, z), memoryAlias(z, y).
valueFlow(x, y) :- valueFlow(x, z), valueFlow(z, y).
memoryAlias(x, w) :- dereference(y, x), valueAlias(y, z), dereference(z, w).
valueAlias(x, y) :- valueFlow(z, x), valueFlow(z, y).
valueAlias(x, y) :- valueFlow(z, x), memoryAlias(z, w), valueFlow(w, y).
valueFlow(x, x) :- assign(x, y).
valueFlow(x, x) :- assign(y, x).
memoryAlias(x, x) :- assign(y, x).
memoryAlias(x, x) :- assign(x, y).
`

// progCSDA is context-sensitive dataflow analysis: linear recursion whose
// fixpoint needs one iteration per chain position.
const progCSDA = `
null(x, y) :- nullEdge(x, y).
null(x, y) :- null(x, w), arc(w, y).
`
