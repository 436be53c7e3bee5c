// Package analysis is the replay-time analysis subsystem: pluggable
// analyzers attach to the offline replay path through core's observer
// surface (core/observer.go) and extract evidence — precise racing pairs,
// leaked allocation sites, execution profiles — from a single deterministic
// re-execution of a stored trace.
//
// Running analyses at replay time instead of record time is the paper's
// closing argument made concrete: the production run pays only the recording
// overhead, while arbitrarily heavy instrumentation (vector clocks on every
// memory access, conservative heap scans) runs later, offline, as many times
// and with as many analyzers as wanted, against the *same* execution. An
// identical replay fixes the synchronization/syscall order and each thread's
// program order, so the callback stream every analyzer consumes — and
// therefore its report — is deterministic for a matched replay.
//
// Analyzers are passive observers: they read, never write, and never block
// on application synchronization, so attaching any number of them cannot
// perturb replay identity (exit value, output, final heap image —
// TestAnalyzerCompositionIdentity holds them to the byte).
package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/record"
	"repro/internal/tir"
)

// Analyzer is one pluggable replay-time analysis. Implementations also
// implement whichever core observer interfaces (SyncObserver,
// AccessObserver, AllocObserver, ...) they need; Run attaches them to the
// replay runtime, drives the re-execution, then calls Finish for
// whole-state passes (reachability scans) before collecting findings.
type Analyzer interface {
	core.Observer
	// Name identifies the analyzer ("race", "leak", ...).
	Name() string
	// Finish runs after the replay completed, while the final program state
	// (memory image, allocator metadata) is still intact.
	Finish(rt *core.Runtime) error
	// Findings returns the machine-checkable report.
	Findings() []Finding
}

// Finding is one machine-checkable analysis result. The JSON shape is the
// contract `ir-trace analyze -json` emits.
type Finding struct {
	// Analyzer names the producer ("race", "leak").
	Analyzer string `json:"analyzer"`
	// Kind classifies the defect ("data-race", "memory-leak").
	Kind string `json:"kind"`
	// Addr is the implicated address (racing cell, leaked payload).
	Addr uint64 `json:"addr"`
	// Size is the access or object size in bytes.
	Size int64 `json:"size"`
	// Sites carries the blamed code locations: both racing accesses (in
	// observation order) for a race, the allocation site for a leak.
	Sites []Site `json:"sites"`
	// Detail is a one-line human-readable summary.
	Detail string `json:"detail"`
}

// Site is one blamed code location with its full call stack.
type Site struct {
	TID int32 `json:"tid"`
	// Write is meaningful for races: whether this side wrote.
	Write bool `json:"write"`
	// Atomic marks an atomic access.
	Atomic bool `json:"atomic,omitempty"`
	// Stack is the call stack, innermost frame first.
	Stack []interp.StackEntry `json:"stack"`
}

// Func returns the innermost function name, the site's short identity.
func (s Site) Func() string {
	if len(s.Stack) == 0 {
		return "?"
	}
	return s.Stack[0].Func
}

func (s Site) String() string {
	frames := make([]string, len(s.Stack))
	for i, e := range s.Stack {
		frames[i] = fmt.Sprintf("%s+%d", e.Func, e.PC)
	}
	return fmt.Sprintf("thread %d at %s", s.TID, strings.Join(frames, " < "))
}

func (f Finding) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s] %s at %#x (%d bytes): %s\n", f.Analyzer, f.Kind, f.Addr, f.Size, f.Detail)
	for _, s := range f.Sites {
		switch {
		case f.Kind == "data-race" && s.Write:
			fmt.Fprintf(&sb, "  write by thread %d\n", s.TID)
		case f.Kind == "data-race":
			fmt.Fprintf(&sb, "  read by thread %d\n", s.TID)
		default:
			fmt.Fprintf(&sb, "  allocated by thread %d\n", s.TID)
		}
		for _, e := range s.Stack {
			fmt.Fprintf(&sb, "    at %s+%d\n", e.Func, e.PC)
		}
	}
	return sb.String()
}

// Run re-executes a recorded epoch sequence once with every analyzer
// attached, then collects their findings. opts is interpreted as for
// core.PrepareReplay (allocator selection and list capacities must match the
// recording); setup recreates recording-time virtual-OS state and may be
// nil. A trace that recorded a fault reproduces the fault, which is
// returned as err alongside the report and findings — analysis of crashing
// executions is the prime use case, not an error.
func Run(mod *tir.Module, epochs []*record.EpochLog, opts core.Options,
	setup func(*core.Runtime) error, analyzers ...Analyzer) (*core.Report, []Finding, error) {
	// Copy before attaching: the caller's Observers slice may share its
	// backing array with concurrent jobs (trace.Fanout clones do), and an
	// append into spare capacity would hand one job another job's analyzer.
	observers := append([]core.Observer(nil), opts.Observers...)
	for _, a := range analyzers {
		observers = append(observers, a)
	}
	opts.Observers = observers
	rt, err := core.PrepareReplay(mod, epochs, opts)
	if err != nil {
		return nil, nil, err
	}
	if setup != nil {
		if err := setup(rt); err != nil {
			rt.Shutdown()
			return nil, nil, err
		}
	}
	rep, runErr := rt.RunReplay()
	if rep == nil {
		// The replay never matched; there is no execution to report on.
		return nil, nil, runErr
	}
	findings, err := Collect(rt, analyzers, runErr)
	return rep, findings, err
}

// Collect runs every analyzer's Finish pass against the completed replay's
// final state and gathers findings in analyzer order. Finish every analyzer
// even when one fails, and never let a finish error displace runErr: a
// reproduced fault is the prime use case, not something to lose behind a
// broken analyzer.
func Collect(rt *core.Runtime, analyzers []Analyzer, runErr error) ([]Finding, error) {
	var findings []Finding
	var errs []error
	for _, a := range analyzers {
		if ferr := a.Finish(rt); ferr != nil {
			errs = append(errs, fmt.Errorf("analysis: %s finish: %w", a.Name(), ferr))
			continue
		}
		findings = append(findings, a.Findings()...)
	}
	if len(errs) > 0 {
		return findings, errors.Join(append(errs, runErr)...)
	}
	return findings, runErr
}

// FromSpec builds analyzers from a comma-separated list of names — the
// ir-trace analyze -analyzers flag syntax. Known names: "race", "leak",
// "profile".
func FromSpec(spec string) ([]Analyzer, error) {
	var out []Analyzer
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(name) {
		case "race":
			out = append(out, NewRaceDetector())
		case "leak":
			out = append(out, NewLeakDetector())
		case "profile":
			out = append(out, NewProfile())
		case "":
		default:
			return nil, fmt.Errorf("analysis: unknown analyzer %q (known: race, leak, profile)", name)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: empty analyzer list %q", spec)
	}
	return out, nil
}

// sortFindings orders findings deterministically (by address, then detail)
// so reports are stable across runs.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Addr != fs[j].Addr {
			return fs[i].Addr < fs[j].Addr
		}
		return fs[i].Detail < fs[j].Detail
	})
}
