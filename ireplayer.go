// Package ireplayer is a Go reproduction of "iReplayer: In-situ and
// Identical Record-and-Replay for Multithreaded Applications" (Liu,
// Silvestro, Wang, Tian, Liu — PLDI 2018).
//
// Programs under test are expressed in TIR (package internal/tir), a small
// register-based thread IR executed on checkpointable virtual CPUs, so that
// the paper's mechanisms — epoch checkpoints of thread contexts, in-situ
// rollback, identical replay via per-thread/per-variable event lists, and
// watchpoint-driven root-cause analysis — are implemented directly rather
// than approximated over goroutines (see DESIGN.md for the substitution
// argument).
//
// The package re-exports the runtime's public surface:
//
//	rt, err := ireplayer.New(module, ireplayer.Options{})
//	report, err := rt.Run()
//
// Tools hook epoch boundaries through Options.OnEpochEnd /
// Options.OnReplayMatched; the bundled detectors (internal/detect), the
// interactive debugger (internal/debug), the evaluation harness
// (internal/bench), and the synthesized applications (internal/workloads)
// all build on exactly this surface.
//
// Above the library sit the persistent trace layer (internal/trace: an
// indexed store of replayable recordings with random-access Handles —
// epoch ranges and checkpoints decode on demand, so consumers pay for the
// segments they touch, not the recordings they store), the replay-time
// analysis subsystem (internal/analysis), and the trace service
// (internal/sched + internal/server + cmd/ir-served), which serves one
// store to many clients over HTTP with scheduled, cancelable
// record/replay/analyze jobs. See docs/ARCHITECTURE.md for the subsystem
// map.
package ireplayer

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/tir"
)

// Runtime executes one TIR program under record-and-replay.
type Runtime = core.Runtime

// Options configures a Runtime.
type Options = core.Options

// Report summarizes a completed run.
type Report = core.Report

// Stats aggregates runtime counters.
type Stats = core.Stats

// Decision is a tool's verdict at an epoch boundary.
type Decision = core.Decision

// EpochEndInfo describes why an epoch ended.
type EpochEndInfo = core.EpochEndInfo

// StopReason explains an epoch boundary.
type StopReason = core.StopReason

// Epoch-boundary decisions.
const (
	// Proceed continues to the next epoch.
	Proceed = core.Proceed
	// Replay rolls back and re-executes the last epoch in-situ.
	Replay = core.Replay
	// Abort terminates the program.
	Abort = core.Abort
)

// Epoch-end reasons.
const (
	// StopLogFull: a preallocated event list was exhausted.
	StopLogFull = core.StopLogFull
	// StopIrrevocable: an irrevocable system call closed the epoch.
	StopIrrevocable = core.StopIrrevocable
	// StopProgramEnd: main returned.
	StopProgramEnd = core.StopProgramEnd
	// StopFault: a thread trapped (the SIGSEGV analogue).
	StopFault = core.StopFault
	// StopTool: a tool or user requested the boundary.
	StopTool = core.StopTool
)

// Module is a TIR program.
type Module = tir.Module

// NewModuleBuilder starts building a TIR program.
var NewModuleBuilder = tir.NewModuleBuilder

// New builds a runtime for a validated module.
func New(mod *Module, opts Options) (*Runtime, error) {
	return core.New(mod, opts)
}

// --- persistent traces and offline replay (internal/trace) ---

// EpochLog is one epoch's finalized event record, the unit Options.TraceSink
// receives at every epoch boundary and the unit offline replay consumes.
type EpochLog = record.EpochLog

// ThreadLog is one thread's slice of an epoch.
type ThreadLog = record.ThreadLog

// VarLog is one synchronization variable's slice of an epoch.
type VarLog = record.VarLog

// Fingerprint hashes a module's observable content; trace stores index
// recordings by it and offline replay refuses mismatched modules.
var Fingerprint = tir.Fingerprint

// NewFlattener concatenates recorded epochs into the one replayable range
// (a Flat) offline replay consumes: Add each epoch in order, then call Flat.
var NewFlattener = record.NewFlattener

// PrepareReplayFlatAt builds a runtime primed to re-execute a flattened epoch
// range from a checkpoint — program start when it is nil, in which case
// populate the virtual OS (input files) before calling RunReplay on the
// result.
var PrepareReplayFlatAt = core.PrepareReplayFlatAt

// Checkpoint is a persisted epoch-boundary checkpoint (a trace checkpoint frame):
// the memory snapshot, allocator metadata, vCPU contexts, shadow
// synchronization state, and filesystem state the runtime captures at every
// epoch begin, exported so one long trace becomes independently replayable
// segments. Produce them with Options.CheckpointEvery/CheckpointSink; the
// trace executor (internal/trace) resumes segment replays from them.
type Checkpoint = core.Checkpoint

// --- replay-time analysis (internal/analysis) ---

// Observer attaches a passive tool to an execution via Options.Observers;
// capability interfaces (core.SyncObserver, core.AccessObserver, ...) are
// discovered by assertion. The replay-time analyzers and the §4 detectors
// share this surface.
type Observer = core.Observer

// Analyzer is one pluggable replay-time analysis (race, leak, profile).
type Analyzer = analysis.Analyzer

// Finding is a machine-checkable analysis result.
type Finding = analysis.Finding

// NewRaceDetector builds the vector-clock happens-before data-race
// analyzer: it reports precise racing pairs (both access addresses, both
// call stacks) from a single re-execution of a stored trace.
var NewRaceDetector = analysis.NewRaceDetector

// NewLeakDetector builds the memory-leak analyzer: it diffs allocator state
// against conservative reachability scans and blames the leaking
// allocation site.
var NewLeakDetector = analysis.NewLeakDetector
