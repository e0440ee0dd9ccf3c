package obs

// ExecMetrics bundles the hot-path instruments the worker pool and kernels
// update directly: per-phase wall-time and the distribution histograms the
// paper's measurement figures call for.
type ExecMetrics struct {
	// Phase accumulates wall time per fixpoint phase across all workers.
	Phase PhaseTimers
	// BatchRows observes the row count of each probe/kernel block the window
	// kernels process — the batch-size distribution.
	BatchRows Histogram
	// ChainLen observes sampled GSCHT bucket chain lengths at dedup-set
	// release, a direct read on hash-table pressure.
	ChainLen Histogram
	// DeltaPartRows observes per-partition accepted ∆ rows each delta step,
	// exposing partition skew.
	DeltaPartRows Histogram
}

// Register exposes the exec metrics on reg under stable names.
func (m *ExecMetrics) Register(reg *Registry) {
	m.Phase.register(reg)
	reg.RegisterHistogram("recstep_batch_rows",
		"Rows per block processed by the window kernels (power-of-two buckets).", &m.BatchRows)
	reg.RegisterHistogram("recstep_gscht_chain_length",
		"Sampled GSCHT bucket chain lengths at dedup-set release.", &m.ChainLen)
	reg.RegisterHistogram("recstep_delta_partition_rows",
		"Accepted ∆ rows per partition per delta step (skew distribution).", &m.DeltaPartRows)
}

// Observer is the one attach point for a run's observability: the registry
// scraped by /metrics and /statusz, the exec metrics the pool updates, and
// an optional tracer. Pass one via core.Options.Obs (or let the engine make
// a private one) — cmd/recstep keeps a single Observer alive across the
// whole process so the HTTP listener serves it mid-fixpoint.
type Observer struct {
	Reg    *Registry
	Exec   *ExecMetrics
	Tracer *Tracer // nil unless -trace is set
}

// New returns an Observer with a fresh registry and registered exec metrics.
func New() *Observer {
	o := &Observer{Reg: NewRegistry(), Exec: &ExecMetrics{}}
	o.Exec.Register(o.Reg)
	return o
}

// WithTracer attaches a tracer buffering at most maxEvents events.
func (o *Observer) WithTracer(maxEvents int) *Observer {
	o.Tracer = NewTracer(maxEvents)
	return o
}
