package analysis

// Profile is the trivial analyzer: it counts what the replay delivered.
// Useful on its own as an `ir-trace analyze` summary, and in tests as the
// cheapest witness that observers actually fired while perturbing nothing.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/interp"
)

// Profile counts observed operations by kind. An in-situ rollback restores
// the counts through the state codec (state.go).
type Profile struct {
	Syncs    atomic.Int64
	Creates  atomic.Int64
	Exits    atomic.Int64
	Joins    atomic.Int64
	Allocs   atomic.Int64
	Frees    atomic.Int64
	Syscalls atomic.Int64
	Accesses atomic.Int64
}

// NewProfile builds a profile analyzer.
func NewProfile() *Profile { return &Profile{} }

// Name implements Analyzer.
func (p *Profile) Name() string { return "profile" }

// OnSync implements core.SyncObserver.
func (p *Profile) OnSync(tid int32, op core.SyncOp, addr uint64) { p.Syncs.Add(1) }

// OnThreadCreate implements core.ThreadObserver.
func (p *Profile) OnThreadCreate(parent, child int32) { p.Creates.Add(1) }

// OnThreadExit implements core.ThreadObserver.
func (p *Profile) OnThreadExit(tid int32) { p.Exits.Add(1) }

// OnThreadJoin implements core.ThreadObserver.
func (p *Profile) OnThreadJoin(joiner, joinee int32) { p.Joins.Add(1) }

// OnAlloc implements core.AllocObserver.
func (p *Profile) OnAlloc(tid int32, addr uint64, size int64, stack []interp.StackEntry) {
	p.Allocs.Add(1)
}

// OnFree implements core.AllocObserver.
func (p *Profile) OnFree(tid int32, addr uint64, stack []interp.StackEntry) { p.Frees.Add(1) }

// OnSyscall implements core.SyscallObserver.
func (p *Profile) OnSyscall(tid int32, num int64, ret uint64) { p.Syscalls.Add(1) }

// OnAccess implements core.AccessObserver.
func (p *Profile) OnAccess(tid int32, addr uint64, size int, write, atomic bool,
	stack func() []interp.StackEntry) {
	p.Accesses.Add(1)
}

// Finish implements Analyzer.
func (p *Profile) Finish(rt *core.Runtime) error { return nil }

// Findings implements Analyzer: one informational entry.
func (p *Profile) Findings() []Finding {
	return []Finding{{
		Analyzer: "profile",
		Kind:     "profile",
		Detail: fmt.Sprintf(
			"syncs=%d creates=%d exits=%d joins=%d allocs=%d frees=%d syscalls=%d accesses=%d",
			p.Syncs.Load(), p.Creates.Load(), p.Exits.Load(), p.Joins.Load(),
			p.Allocs.Load(), p.Frees.Load(), p.Syscalls.Load(), p.Accesses.Load()),
	}}
}
