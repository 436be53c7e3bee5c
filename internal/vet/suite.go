package vet

// Suite wires the analyzers with the repo's canonical configuration: which
// packages are replay-critical, where the scheduler and catalog live. This
// is the one place the invariant surface is declared; cmd/ir-vet and the
// repo-clean meta-test both run exactly this.

// DetScope is the replay-critical surface detpure holds to the determinism
// bar: the interpreter, memory/heap/record state, the trace codec, and the
// recording runtime itself (whose telemetry and stall-detection reads carry
// reviewed //ir:wallclock annotations). A nil file list means the whole
// package; internal/trace is scoped to the on-disk format files — the
// host-side fetch, cache and job layers (handle, exec, lifecycle, store) run
// on service time and do telemetry freely. Every listed file must exist
// (TestDetScopeFilesExist): detpure skips a missing one without a word.
var DetScope = map[string][]string{
	"repro/internal/interp": nil,
	"repro/internal/mem":    nil,
	"repro/internal/heap":   nil,
	"repro/internal/record": nil,
	"repro/internal/core":   nil,
	"repro/internal/trace": {
		"trace.go", "format.go", "writer.go", "index.go", "compress.go",
	},
}

// CorePollPackages are the packages whose unbounded wait loops must poll
// interruption (ctxpoll rule 2).
var CorePollPackages = []string{"repro/internal/core"}

// Suite returns the full analyzer suite under repo configuration.
func Suite() []*Analyzer {
	return []*Analyzer{
		NewDetPure(DetScope),
		NewAtomicMix(),
		NewGuardedBy(),
		NewObsConst("internal/obs"),
		NewCtxPoll("internal/sched", CorePollPackages...),
		NewRacySkip("internal/hostrace"),
		NewAnnot(),
	}
}
