// Package interp executes TIR on a virtual CPU whose complete execution
// state — registers, program counter, call frames, and virtual stack
// pointer — is ordinary Go data.
//
// This is the getcontext/setcontext substitute: iReplayer checkpoints native
// thread contexts at epoch begin and restores them on rollback so that every
// thread resumes mid-function (§3.1, §3.4). Context and the GetContext /
// SetContext pair provide exactly that capability for TIR threads.
package interp

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/mem"
	"repro/internal/tir"
)

// Hooks connects a CPU to the enclosing thread runtime. Every method is
// invoked on the goroutine driving the CPU, so implementations may block
// (e.g. a mutex-lock intrinsic waiting for the lock).
type Hooks interface {
	// Syscall handles a Syscall instruction and is an interception point.
	Syscall(num int64, args []uint64) (uint64, error)
	// Intrinsic handles synchronization, allocation, and thread intrinsics;
	// synchronization intrinsics are interception points.
	Intrinsic(id int64, args []uint64) (uint64, error)
	// Poll is called every PollInterval instructions so that long CPU-bound
	// stretches still observe stop-the-world requests (§3.3). A non-nil
	// return unwinds the CPU immediately.
	Poll() error
}

// PollInterval is the instruction budget between Poll calls.
const PollInterval = 2048

// ErrUnwind is returned through Run when the runtime asks the thread to
// abandon the current execution (rollback). The CPU's frames are left as-is;
// the trampoline restores a checkpointed Context before re-running.
var ErrUnwind = errors.New("interp: unwind for rollback")

// Frame is one activation record.
type Frame struct {
	Fn     int
	PC     int
	Regs   []uint64
	FP     uint64 // virtual-stack frame base; 0 when the function has no frame
	RetReg int32  // caller register receiving the return value (-1 discards)
}

// Context is a deep copy of CPU execution state — the TIR analogue of
// ucontext_t.
type Context struct {
	Frames []Frame
	SP     uint64
	Ret    uint64
	// Instrs is the number of instructions the thread had *completed* when
	// the context was captured. Contexts are captured while a thread is
	// parked inside a hook — the current instruction is fetched but not
	// executed and re-executes on resume — so this excludes it. Restoring a
	// context restores the count, which keeps per-thread instruction
	// positions deterministic across rollbacks and is what segment-boundary
	// stops (SetBoundary) are measured in.
	Instrs uint64
	// SincePoll preserves the poll-countdown phase so a resumed thread polls
	// at the same instruction offsets as the original execution.
	SincePoll int
}

// StackEntry is one level of a symbolized call stack. The JSON tags are the
// contract of machine-readable analysis findings (ir-trace analyze -json).
type StackEntry struct {
	Func string `json:"func"`
	PC   int    `json:"pc"`
}

// Trap is a fatal execution error (memory fault, division by zero, stack
// overflow) carrying the faulting thread's call stack; it models the
// paper's SIGSEGV-and-friends path into the debugger (§4.3).
type Trap struct {
	Cause error
	Stack []StackEntry
}

func (t *Trap) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trap: %v", t.Cause)
	for _, e := range t.Stack {
		fmt.Fprintf(&sb, "\n  at %s+%d", e.Func, e.PC)
	}
	return sb.String()
}

func (t *Trap) Unwrap() error { return t.Cause }

// WatchHit couples a watchpoint hit with the writing thread's call stack;
// the detectors use it to report root causes (§4.1, §4.2).
type WatchHit struct {
	Watch mem.Watchpoint
	Addr  uint64
	Size  int
	Stack []StackEntry
}

// CPU is one vthread's virtual processor.
type CPU struct {
	Mod   *tir.Module
	Mem   *mem.Memory
	Hooks Hooks
	// OnWatch, when set, receives watchpoint hits caused by this CPU's
	// stores together with the current call stack.
	OnWatch func(WatchHit)
	// OnAccess, when set before Run, receives every data memory access this
	// CPU performs — loads, stores, and the memory intrinsics (memset,
	// memcpy, atomics). The top frame's PC is synced before the callback, so
	// CallStack inside it symbolizes the accessing instruction precisely.
	// It must be installed while the CPU is parked (before Run or between
	// runs); the armed flag is sampled once per Run.
	OnAccess func(addr uint64, size int, write, atomic bool)

	frames    []Frame
	sp        uint64
	stackLow  uint64
	stackHigh uint64
	ret       uint64

	instrs      uint64
	sincePoll   int
	watchArmed  bool
	accessArmed bool

	// boundary, when armed, stops Run before any instruction that would push
	// the completed count past it; OnBoundary is invoked once at that point
	// and its return value unwinds Run (segment-end parking).
	boundary      uint64
	boundaryArmed bool
	// OnBoundary handles a boundary stop; it must block until the enclosing
	// runtime decides (rollback or shutdown) and return the unwind error.
	OnBoundary func() error
}

// New creates a CPU whose virtual stack occupies [stackBase,
// stackBase+stackSize).
func New(mod *tir.Module, m *mem.Memory, hooks Hooks, stackBase uint64, stackSize int64) *CPU {
	return &CPU{
		Mod:       mod,
		Mem:       m,
		Hooks:     hooks,
		stackLow:  stackBase,
		stackHigh: stackBase + uint64(stackSize),
		sp:        stackBase + uint64(stackSize),
	}
}

// Start initializes the CPU to begin executing function fn with args. The
// instruction counters restart at zero: a body run is a fresh deterministic
// stream, and a thread re-released after rollback (its creation replayed)
// must count from zero again for checkpointed instruction positions to be
// reproducible.
func (c *CPU) Start(fn int, args []uint64) {
	c.frames = c.frames[:0]
	c.sp = c.stackHigh
	c.ret = 0
	c.instrs = 0
	c.sincePoll = 0
	c.push(fn, args, -1)
}

// Running reports whether the CPU has frames to execute.
func (c *CPU) Running() bool { return len(c.frames) > 0 }

// Result returns the entry function's return value after Run completes.
func (c *CPU) Result() uint64 { return c.ret }

// Instructions returns the number of instructions retired.
func (c *CPU) Instructions() uint64 { return c.instrs }

func (c *CPU) push(fn int, args []uint64, retReg int32) error {
	f := c.Mod.Funcs[fn]
	fr := Frame{Fn: fn, Regs: make([]uint64, f.NumRegs), RetReg: retReg}
	copy(fr.Regs, args)
	if f.FrameSize > 0 {
		if c.sp-c.stackLow < uint64(f.FrameSize) {
			return c.trap(fmt.Errorf("stack overflow in %s", f.Name))
		}
		c.sp -= uint64(f.FrameSize)
		fr.FP = c.sp
	}
	c.frames = append(c.frames, fr)
	return nil
}

func (c *CPU) pop(value uint64) {
	top := &c.frames[len(c.frames)-1]
	f := c.Mod.Funcs[top.Fn]
	if f.FrameSize > 0 {
		c.sp += uint64(f.FrameSize)
	}
	retReg := top.RetReg
	c.frames = c.frames[:len(c.frames)-1]
	if len(c.frames) == 0 {
		c.ret = value
		return
	}
	if retReg >= 0 {
		c.frames[len(c.frames)-1].Regs[retReg] = value
	}
}

// CallStack symbolizes the current frames, innermost first.
func (c *CPU) CallStack() []StackEntry {
	out := make([]StackEntry, 0, len(c.frames))
	for i := len(c.frames) - 1; i >= 0; i-- {
		fr := c.frames[i]
		out = append(out, StackEntry{Func: c.Mod.Funcs[fr.Fn].Name, PC: fr.PC})
	}
	return out
}

// GetContext deep-copies the execution state (the getcontext analogue). It
// is called while the thread is parked inside a hook, where the current
// instruction is fetched (already counted) but unexecuted; the completed
// count therefore excludes it. A CPU that has not fetched anything yet
// (program-start checkpoint) has nothing to exclude.
func (c *CPU) GetContext() *Context {
	ctx := &Context{SP: c.sp, Ret: c.ret, Frames: make([]Frame, len(c.frames))}
	if c.instrs > 0 {
		ctx.Instrs = c.instrs - 1
		ctx.SincePoll = c.sincePoll - 1
	}
	for i, fr := range c.frames {
		regs := make([]uint64, len(fr.Regs))
		copy(regs, fr.Regs)
		fr.Regs = regs
		ctx.Frames[i] = fr
	}
	return ctx
}

// SetContext restores a previously captured context (the setcontext
// analogue); the next Run resumes mid-function at the checkpointed PCs, and
// the instruction counters resume at the checkpointed position (the re-fetch
// of the parked instruction re-counts it, matching the capture-side
// adjustment).
func (c *CPU) SetContext(ctx *Context) {
	c.sp = ctx.SP
	c.ret = ctx.Ret
	c.instrs = ctx.Instrs
	c.sincePoll = ctx.SincePoll
	c.frames = c.frames[:0]
	for _, fr := range ctx.Frames {
		regs := make([]uint64, len(fr.Regs))
		copy(regs, fr.Regs)
		fr.Regs = regs
		c.frames = append(c.frames, fr)
	}
}

func (c *CPU) trap(cause error) error {
	return &Trap{Cause: cause, Stack: c.CallStack()}
}

func (c *CPU) noteStore(addr uint64, size int) {
	if !c.watchArmed {
		return
	}
	if w, ok := c.Mem.WatchOverlap(addr, size); ok && c.OnWatch != nil {
		c.OnWatch(WatchHit{Watch: w, Addr: addr, Size: size, Stack: c.CallStack()})
	}
}

// Run executes until the entry function returns, a trap occurs, or a hook
// unwinds the thread. It may be called again after SetContext to resume.
func (c *CPU) Run() error {
	c.watchArmed = c.Mem.HasWatchpoints()
	c.accessArmed = c.OnAccess != nil
	for len(c.frames) > 0 {
		top := &c.frames[len(c.frames)-1]
		fn := c.Mod.Funcs[top.Fn]
		code := fn.Code
		regs := top.Regs
		pc := top.PC

	inner:
		for {
			if pc >= len(code) {
				top.PC = pc
				return c.trap(fmt.Errorf("fell off end of %s", fn.Name))
			}
			in := code[pc]
			c.instrs++
			c.sincePoll++
			if c.boundaryArmed && c.instrs > c.boundary {
				// Segment end: executing this instruction would cross the
				// recorded checkpoint boundary. Un-count the fetch (the parked
				// position is "boundary instructions completed") and park.
				c.instrs--
				c.sincePoll--
				top.PC = pc
				if c.OnBoundary != nil {
					return c.OnBoundary()
				}
				return ErrUnwind
			}
			if c.sincePoll >= PollInterval {
				c.sincePoll = 0
				top.PC = pc
				if err := c.Hooks.Poll(); err != nil {
					return err
				}
				c.watchArmed = c.Mem.HasWatchpoints()
			}
			switch in.Op {
			case tir.Nop:
			case tir.ConstI:
				regs[in.A] = uint64(in.Imm)
			case tir.Mov:
				regs[in.A] = regs[in.B]
			case tir.Add:
				regs[in.A] = regs[in.B] + regs[in.C]
			case tir.Sub:
				regs[in.A] = regs[in.B] - regs[in.C]
			case tir.Mul:
				regs[in.A] = regs[in.B] * regs[in.C]
			case tir.Div:
				if regs[in.C] == 0 {
					top.PC = pc
					return c.trap(errors.New("integer divide by zero"))
				}
				regs[in.A] = uint64(int64(regs[in.B]) / int64(regs[in.C]))
			case tir.Rem:
				if regs[in.C] == 0 {
					top.PC = pc
					return c.trap(errors.New("integer divide by zero"))
				}
				regs[in.A] = uint64(int64(regs[in.B]) % int64(regs[in.C]))
			case tir.And:
				regs[in.A] = regs[in.B] & regs[in.C]
			case tir.Or:
				regs[in.A] = regs[in.B] | regs[in.C]
			case tir.Xor:
				regs[in.A] = regs[in.B] ^ regs[in.C]
			case tir.Shl:
				regs[in.A] = regs[in.B] << (regs[in.C] & 63)
			case tir.Shr:
				regs[in.A] = regs[in.B] >> (regs[in.C] & 63)
			case tir.Sar:
				regs[in.A] = uint64(int64(regs[in.B]) >> (regs[in.C] & 63))
			case tir.AddI:
				regs[in.A] = regs[in.B] + uint64(in.Imm)
			case tir.MulI:
				regs[in.A] = regs[in.B] * uint64(in.Imm)
			case tir.Neg:
				regs[in.A] = -regs[in.B]
			case tir.Not:
				regs[in.A] = ^regs[in.B]
			case tir.FAdd:
				regs[in.A] = fop(regs[in.B], regs[in.C], '+')
			case tir.FSub:
				regs[in.A] = fop(regs[in.B], regs[in.C], '-')
			case tir.FMul:
				regs[in.A] = fop(regs[in.B], regs[in.C], '*')
			case tir.FDiv:
				regs[in.A] = fop(regs[in.B], regs[in.C], '/')
			case tir.FNeg:
				regs[in.A] = math.Float64bits(-math.Float64frombits(regs[in.B]))
			case tir.FSqrt:
				regs[in.A] = math.Float64bits(math.Sqrt(math.Float64frombits(regs[in.B])))
			case tir.ItoF:
				regs[in.A] = math.Float64bits(float64(int64(regs[in.B])))
			case tir.FtoI:
				regs[in.A] = uint64(int64(math.Float64frombits(regs[in.B])))
			case tir.Eq:
				regs[in.A] = b2u(regs[in.B] == regs[in.C])
			case tir.Ne:
				regs[in.A] = b2u(regs[in.B] != regs[in.C])
			case tir.LtS:
				regs[in.A] = b2u(int64(regs[in.B]) < int64(regs[in.C]))
			case tir.LeS:
				regs[in.A] = b2u(int64(regs[in.B]) <= int64(regs[in.C]))
			case tir.LtU:
				regs[in.A] = b2u(regs[in.B] < regs[in.C])
			case tir.FLt:
				regs[in.A] = b2u(math.Float64frombits(regs[in.B]) < math.Float64frombits(regs[in.C]))
			case tir.FLe:
				regs[in.A] = b2u(math.Float64frombits(regs[in.B]) <= math.Float64frombits(regs[in.C]))
			case tir.Jmp:
				pc = int(in.Imm)
				continue inner
			case tir.Br:
				if regs[in.A] != 0 {
					pc = int(in.Imm)
					continue inner
				}
			case tir.Brz:
				if regs[in.A] == 0 {
					pc = int(in.Imm)
					continue inner
				}
			case tir.Call:
				top.PC = pc + 1
				args := regs[in.B : in.B+in.C]
				if err := c.push(int(in.Imm), args, in.A); err != nil {
					return err
				}
				break inner
			case tir.Ret:
				var v uint64
				if in.A >= 0 {
					v = regs[in.A]
				}
				top.PC = pc + 1
				c.pop(v)
				break inner
			case tir.Load8:
				addr := regs[in.B] + uint64(in.Imm)
				v, err := c.Mem.Load8(addr)
				if err != nil {
					top.PC = pc
					return c.trap(err)
				}
				regs[in.A] = v
				if c.accessArmed {
					top.PC = pc
					c.OnAccess(addr, 1, false, false)
				}
			case tir.Load64:
				addr := regs[in.B] + uint64(in.Imm)
				v, err := c.Mem.Load64(addr)
				if err != nil {
					top.PC = pc
					return c.trap(err)
				}
				regs[in.A] = v
				if c.accessArmed {
					top.PC = pc
					c.OnAccess(addr, 8, false, false)
				}
			case tir.Store8:
				addr := regs[in.B] + uint64(in.Imm)
				if err := c.Mem.Store8(addr, regs[in.A]); err != nil {
					top.PC = pc
					return c.trap(err)
				}
				if c.watchArmed {
					top.PC = pc
					c.noteStore(addr, 1)
				}
				if c.accessArmed {
					top.PC = pc
					c.OnAccess(addr, 1, true, false)
				}
			case tir.Store64:
				addr := regs[in.B] + uint64(in.Imm)
				if err := c.Mem.Store64(addr, regs[in.A]); err != nil {
					top.PC = pc
					return c.trap(err)
				}
				if c.watchArmed {
					top.PC = pc
					c.noteStore(addr, 8)
				}
				if c.accessArmed {
					top.PC = pc
					c.OnAccess(addr, 8, true, false)
				}
			case tir.FrameAddr:
				regs[in.A] = top.FP + uint64(in.Imm)
			case tir.GlobalAddr:
				regs[in.A] = c.globalAddr(int(in.Imm))
			case tir.Syscall:
				// PC points AT the instruction while the hook runs: a context
				// captured while the thread is parked here re-executes the
				// syscall after rollback (stop happens before invocation,
				// §3.3).
				top.PC = pc
				v, err := c.Hooks.Syscall(in.Imm, regs[in.B:in.B+in.C])
				if err != nil {
					return err
				}
				if in.A >= 0 {
					regs[in.A] = v
				}
				top.PC = pc + 1
				c.watchArmed = c.Mem.HasWatchpoints()
				pc++
				continue inner
			case tir.Intrin:
				top.PC = pc // see Syscall: park-and-checkpoint re-executes
				v, err := c.intrinsic(in.Imm, regs[in.B:in.B+in.C])
				if err != nil {
					return err
				}
				if in.A >= 0 {
					regs[in.A] = v
				}
				top.PC = pc + 1
				c.watchArmed = c.Mem.HasWatchpoints()
				pc++
				continue inner
			default:
				top.PC = pc
				return c.trap(fmt.Errorf("invalid opcode %d", in.Op))
			}
			pc++
		}
	}
	return nil
}

// globalAddr computes a global's address by summing preceding sizes, 8-byte
// aligned. The layout matches vsys.LayoutGlobals.
func (c *CPU) globalAddr(gi int) uint64 {
	addr := mem.GlobalBase
	for i := 0; i < gi; i++ {
		addr += uint64(align8(c.Mod.Globals[i].Size))
	}
	return addr
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

// GlobalAddr returns the virtual address of global gi of mod, matching the
// interpreter's layout. It is exported for the runtime's global initializer.
func GlobalAddr(mod *tir.Module, gi int) uint64 {
	addr := mem.GlobalBase
	for i := 0; i < gi; i++ {
		addr += uint64(align8(mod.Globals[i].Size))
	}
	return addr
}

// intrinsic dispatches memory-only intrinsics locally and forwards the rest
// (synchronization, threads, allocation, IO) to the runtime hooks.
func (c *CPU) intrinsic(id int64, args []uint64) (uint64, error) {
	switch id {
	case tir.IntrinMemset:
		if err := c.Mem.Memset(args[0], byte(args[1]), int(args[2])); err != nil {
			return 0, c.trap(err)
		}
		c.noteStore(args[0], int(args[2]))
		c.noteAccess(args[0], int(args[2]), true, false)
		return 0, nil
	case tir.IntrinMemcpy:
		if err := c.Mem.Memcpy(args[0], args[1], int(args[2])); err != nil {
			return 0, c.trap(err)
		}
		c.noteStore(args[0], int(args[2]))
		c.noteAccess(args[1], int(args[2]), false, false)
		c.noteAccess(args[0], int(args[2]), true, false)
		return 0, nil
	case tir.IntrinAtomicLoad:
		v, err := c.Mem.AtomicLoad64(args[0])
		if err != nil {
			return 0, c.trap(err)
		}
		c.noteAccess(args[0], 8, false, true)
		return v, nil
	case tir.IntrinAtomicStore:
		if err := c.Mem.AtomicStore64(args[0], args[1]); err != nil {
			return 0, c.trap(err)
		}
		c.noteStore(args[0], 8)
		c.noteAccess(args[0], 8, true, true)
		return 0, nil
	case tir.IntrinAtomicAdd:
		v, err := c.Mem.AtomicAdd64(args[0], args[1])
		if err != nil {
			return 0, c.trap(err)
		}
		c.noteStore(args[0], 8)
		c.noteAccess(args[0], 8, true, true)
		return v, nil
	case tir.IntrinAtomicCAS:
		v, err := c.Mem.AtomicCAS64(args[0], args[1], args[2])
		if err != nil {
			return 0, c.trap(err)
		}
		if v == 1 {
			c.noteStore(args[0], 8)
		}
		c.noteAccess(args[0], 8, v == 1, true)
		return v, nil
	case tir.IntrinAtomicXchg:
		v, err := c.Mem.AtomicXchg64(args[0], args[1])
		if err != nil {
			return 0, c.trap(err)
		}
		c.noteStore(args[0], 8)
		c.noteAccess(args[0], 8, true, true)
		return v, nil
	default:
		return c.Hooks.Intrinsic(id, args)
	}
}

// noteAccess reports a memory intrinsic's access to the observer hook; the
// Intrin dispatch already synced the top frame's PC.
func (c *CPU) noteAccess(addr uint64, size int, write, atomic bool) {
	if c.accessArmed {
		c.OnAccess(addr, size, write, atomic)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func fop(a, b uint64, op byte) uint64 {
	x, y := math.Float64frombits(a), math.Float64frombits(b)
	var r float64
	switch op {
	case '+':
		r = x + y
	case '-':
		r = x - y
	case '*':
		r = x * y
	case '/':
		r = x / y
	}
	return math.Float64bits(r)
}
