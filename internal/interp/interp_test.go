package interp

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mem"
	"repro/internal/tir"
)

// stubHooks implements Hooks with recording and programmable behaviour.
type stubHooks struct {
	syscalls   []int64
	intrinsics []int64
	polls      int
	pollErr    error
	sysRet     uint64
	intrinRet  uint64
	intrinErr  error
}

func (h *stubHooks) Syscall(num int64, args []uint64) (uint64, error) {
	h.syscalls = append(h.syscalls, num)
	return h.sysRet, nil
}

func (h *stubHooks) Intrinsic(id int64, args []uint64) (uint64, error) {
	h.intrinsics = append(h.intrinsics, id)
	return h.intrinRet, h.intrinErr
}

func (h *stubHooks) Poll() error {
	h.polls++
	return h.pollErr
}

func run(t *testing.T, m *tir.Module) (*CPU, *stubHooks, error) {
	t.Helper()
	vm := mem.New(mem.DefaultConfig())
	h := &stubHooks{}
	base, size := vm.StackRange(0)
	c := New(m, vm, h, base, size)
	c.Start(m.Entry, nil)
	err := c.Run()
	return c, h, err
}

func TestArithmeticLoop(t *testing.T) {
	// sum 1..100 = 5050
	mb := tir.NewModuleBuilder()
	fb := mb.Func("main", 0)
	i, sum, n, one, cond := fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg()
	fb.ConstI(i, 1)
	fb.ConstI(sum, 0)
	fb.ConstI(n, 100)
	fb.ConstI(one, 1)
	loop, done := fb.NewLabel(), fb.NewLabel()
	fb.Bind(loop)
	fb.Bin(tir.LtS, cond, n, i)
	fb.Br(cond, done)
	fb.Bin(tir.Add, sum, sum, i)
	fb.Bin(tir.Add, i, i, one)
	fb.Jmp(loop)
	fb.Bind(done)
	fb.Ret(sum)
	fb.Seal()
	mb.SetEntry("main")
	c, _, err := run(t, mb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if c.Result() != 5050 {
		t.Fatalf("result = %d, want 5050", c.Result())
	}
}

func TestCallAndReturn(t *testing.T) {
	mb := tir.NewModuleBuilder()
	sq := mb.Func("square", 1)
	r := sq.NewReg()
	sq.Bin(tir.Mul, r, sq.Param(0), sq.Param(0))
	sq.Ret(r)
	sq.Seal()
	fb := mb.Func("main", 0)
	x := fb.NewReg()
	fb.ConstI(x, 12)
	fb.Call(x, sq.Index(), x)
	fb.Ret(x)
	fb.Seal()
	mb.SetEntry("main")
	c, _, err := run(t, mb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if c.Result() != 144 {
		t.Fatalf("result = %d, want 144", c.Result())
	}
}

func TestRecursionUsesStackFrames(t *testing.T) {
	// fib(15) with an 8-byte frame per call to exercise the virtual stack.
	mb := tir.NewModuleBuilder()
	fibIdx := mb.Declare("fib", 1)
	fb := mb.FuncBuilderFor(fibIdx)
	fb.SetFrameSize(16)
	n := fb.Param(0)
	two, cond, a, b, addr := fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg()
	rec := fb.NewLabel()
	fb.ConstI(two, 2)
	fb.Bin(tir.LtS, cond, n, two)
	fb.Brz(cond, rec)
	fb.Ret(n)
	fb.Bind(rec)
	fb.FrameAddr(addr, 0)
	fb.Store64(n, addr, 0) // spill n
	fb.AddI(a, n, -1)
	fb.Call(a, fibIdx, a)
	fb.FrameAddr(addr, 0)
	fb.Load64(b, addr, 0) // reload n
	fb.AddI(b, b, -2)
	fb.Call(b, fibIdx, b)
	fb.Bin(tir.Add, a, a, b)
	fb.Ret(a)
	fb.Seal()
	mn := mb.Func("main", 0)
	x := mn.NewReg()
	mn.ConstI(x, 15)
	mn.Call(x, fibIdx, x)
	mn.Ret(x)
	mn.Seal()
	mb.SetEntry("main")
	c, _, err := run(t, mb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if c.Result() != 610 {
		t.Fatalf("fib(15) = %d, want 610", c.Result())
	}
}

func TestFloatOps(t *testing.T) {
	mb := tir.NewModuleBuilder()
	fb := mb.Func("main", 0)
	a, b, r := fb.NewReg(), fb.NewReg(), fb.NewReg()
	fb.ConstI(a, int64(math.Float64bits(9.0)))
	fb.Emit(tir.Instr{Op: tir.FSqrt, A: b, B: a})
	fb.ConstI(a, int64(math.Float64bits(1.5)))
	fb.Bin(tir.FMul, r, a, b) // 1.5 * 3 = 4.5
	fb.Emit(tir.Instr{Op: tir.FtoI, A: r, B: r})
	fb.Ret(r)
	fb.Seal()
	mb.SetEntry("main")
	c, _, err := run(t, mb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if c.Result() != 4 {
		t.Fatalf("result = %d, want 4", c.Result())
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	mb := tir.NewModuleBuilder()
	fb := mb.Func("main", 0)
	a, b := fb.NewReg(), fb.NewReg()
	fb.ConstI(a, 10)
	fb.ConstI(b, 0)
	fb.Bin(tir.Div, a, a, b)
	fb.Ret(a)
	fb.Seal()
	mb.SetEntry("main")
	_, _, err := run(t, mb.MustBuild())
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("want Trap, got %v", err)
	}
	if len(trap.Stack) == 0 || trap.Stack[0].Func != "main" {
		t.Fatalf("trap stack = %v", trap.Stack)
	}
}

func TestNullDereferenceTrapsWithStack(t *testing.T) {
	mb := tir.NewModuleBuilder()
	inner := mb.Func("deref", 1)
	r := inner.NewReg()
	inner.Load64(r, inner.Param(0), 0)
	inner.Ret(r)
	inner.Seal()
	fb := mb.Func("main", 0)
	x := fb.NewReg()
	fb.ConstI(x, 0)
	fb.Call(x, inner.Index(), x)
	fb.Ret(x)
	fb.Seal()
	mb.SetEntry("main")
	_, _, err := run(t, mb.MustBuild())
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("want Trap, got %v", err)
	}
	var fault *mem.Fault
	if !errors.As(trap.Cause, &fault) {
		t.Fatalf("want mem.Fault cause, got %v", trap.Cause)
	}
	if len(trap.Stack) != 2 || trap.Stack[0].Func != "deref" || trap.Stack[1].Func != "main" {
		t.Fatalf("stack = %v", trap.Stack)
	}
}

func TestGlobalsLoadStore(t *testing.T) {
	mb := tir.NewModuleBuilder()
	mb.Global("a", 8)
	mb.Global("b", 16)
	fb := mb.Func("main", 0)
	addr, v := fb.NewReg(), fb.NewReg()
	fb.GlobalAddr(addr, 1)
	fb.ConstI(v, 77)
	fb.Store64(v, addr, 8)
	fb.Load64(v, addr, 8)
	fb.Ret(v)
	fb.Seal()
	mb.SetEntry("main")
	m := mb.MustBuild()
	c, _, err := run(t, m)
	if err != nil {
		t.Fatal(err)
	}
	if c.Result() != 77 {
		t.Fatalf("result = %d", c.Result())
	}
	if got, want := GlobalAddr(m, 1), mem.GlobalBase+8; got != want {
		t.Fatalf("GlobalAddr = %#x, want %#x", got, want)
	}
}

func TestSyscallAndIntrinsicDelegation(t *testing.T) {
	mb := tir.NewModuleBuilder()
	fb := mb.Func("main", 0)
	r := fb.NewReg()
	fb.ConstI(r, 5)
	fb.Syscall(r, 42, r)
	fb.Intrin(r, tir.IntrinMalloc, r)
	fb.Ret(r)
	fb.Seal()
	mb.SetEntry("main")
	_, h, err := run(t, mb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.syscalls) != 1 || h.syscalls[0] != 42 {
		t.Fatalf("syscalls = %v", h.syscalls)
	}
	if len(h.intrinsics) != 1 || h.intrinsics[0] != tir.IntrinMalloc {
		t.Fatalf("intrinsics = %v", h.intrinsics)
	}
}

func TestMemoryIntrinsicsAreLocal(t *testing.T) {
	mb := tir.NewModuleBuilder()
	fb := mb.Func("main", 0)
	dst, val, n := fb.NewReg(), fb.NewReg(), fb.NewReg()
	fb.ConstI(dst, int64(mem.HeapBase))
	fb.ConstI(val, 0x5A)
	fb.ConstI(n, 16)
	fb.Intrin(-1, tir.IntrinMemset, dst, val, n)
	r := fb.NewReg()
	fb.Load8(r, dst, 15)
	fb.Ret(r)
	fb.Seal()
	mb.SetEntry("main")
	c, h, err := run(t, mb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if c.Result() != 0x5A {
		t.Fatalf("result = %#x", c.Result())
	}
	if len(h.intrinsics) != 0 {
		t.Fatalf("memset must not reach hooks: %v", h.intrinsics)
	}
}

func TestAtomicIntrinsics(t *testing.T) {
	mb := tir.NewModuleBuilder()
	mb.Global("cell", 8)
	fb := mb.Func("main", 0)
	addr, v, r := fb.NewReg(), fb.NewReg(), fb.NewReg()
	fb.GlobalAddr(addr, 0)
	fb.ConstI(v, 10)
	fb.Intrin(-1, tir.IntrinAtomicStore, addr, v)
	fb.Intrin(r, tir.IntrinAtomicAdd, addr, v) // 20
	old := fb.NewReg()
	nw := fb.NewReg()
	fb.ConstI(old, 20)
	fb.ConstI(nw, 99)
	fb.Intrin(r, tir.IntrinAtomicCAS, addr, old, nw) // success → 1
	fb.Intrin(v, tir.IntrinAtomicLoad, addr)
	fb.Bin(tir.Add, r, r, v) // 1 + 99 = 100
	fb.Ret(r)
	fb.Seal()
	mb.SetEntry("main")
	c, _, err := run(t, mb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if c.Result() != 100 {
		t.Fatalf("result = %d, want 100", c.Result())
	}
}

func TestPollFiresOnLongLoops(t *testing.T) {
	mb := tir.NewModuleBuilder()
	fb := mb.Func("main", 0)
	i, lim, cond := fb.NewReg(), fb.NewReg(), fb.NewReg()
	fb.ConstI(i, 0)
	fb.ConstI(lim, 3*PollInterval)
	loop, done := fb.NewLabel(), fb.NewLabel()
	fb.Bind(loop)
	fb.Bin(tir.LtS, cond, i, lim)
	fb.Brz(cond, done)
	fb.AddI(i, i, 1)
	fb.Jmp(loop)
	fb.Bind(done)
	fb.Ret(i)
	fb.Seal()
	mb.SetEntry("main")
	_, h, err := run(t, mb.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if h.polls < 3 {
		t.Fatalf("polls = %d, want >= 3", h.polls)
	}
}

func TestPollErrorUnwinds(t *testing.T) {
	mb := tir.NewModuleBuilder()
	fb := mb.Func("main", 0)
	i := fb.NewReg()
	fb.ConstI(i, 0)
	loop := fb.NewLabel()
	fb.Bind(loop)
	fb.AddI(i, i, 1)
	fb.Jmp(loop) // infinite; only Poll can stop it
	fb.Seal()
	mb.SetEntry("main")
	vm := mem.New(mem.DefaultConfig())
	h := &stubHooks{pollErr: ErrUnwind}
	base, size := vm.StackRange(0)
	m := mb.MustBuild()
	c := New(m, vm, h, base, size)
	c.Start(m.Entry, nil)
	if err := c.Run(); !errors.Is(err, ErrUnwind) {
		t.Fatalf("err = %v, want ErrUnwind", err)
	}
	if !c.Running() {
		t.Fatal("frames must survive an unwind for context restore")
	}
}

func TestContextRoundTripResumesMidFunction(t *testing.T) {
	// The thread parks at its first syscall; we capture a context there,
	// let it finish, then restore and re-run: the syscall must re-execute.
	mb := tir.NewModuleBuilder()
	fb := mb.Func("main", 0)
	r, acc := fb.NewReg(), fb.NewReg()
	fb.ConstI(acc, 100)
	fb.Syscall(r, 1)
	fb.Bin(tir.Add, acc, acc, r)
	fb.Ret(acc)
	fb.Seal()
	mb.SetEntry("main")
	m := mb.MustBuild()

	vm := mem.New(mem.DefaultConfig())
	var captured *Context
	h := &stubHooks{sysRet: 11}
	base, size := vm.StackRange(0)
	c := New(m, vm, h, base, size)
	c.Start(m.Entry, nil)

	// Capture a context at the first syscall via a wrapper hook.
	wrapped := &captureHooks{inner: h, cpu: nil}
	c.Hooks = wrapped
	wrapped.cpu = c
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	captured = wrapped.ctx
	if c.Result() != 111 {
		t.Fatalf("first run = %d", c.Result())
	}
	if captured == nil {
		t.Fatal("no context captured")
	}

	// Restore: PC points at the syscall, so it must re-execute.
	h.sysRet = 42
	c.SetContext(captured)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Result() != 142 {
		t.Fatalf("resumed run = %d, want 142", c.Result())
	}
	if len(h.syscalls) != 2 {
		t.Fatalf("syscall executed %d times, want 2", len(h.syscalls))
	}
}

type captureHooks struct {
	inner *stubHooks
	cpu   *CPU
	ctx   *Context
}

func (h *captureHooks) Syscall(num int64, args []uint64) (uint64, error) {
	if h.ctx == nil {
		h.ctx = h.cpu.GetContext()
	}
	return h.inner.Syscall(num, args)
}

func (h *captureHooks) Intrinsic(id int64, args []uint64) (uint64, error) {
	return h.inner.Intrinsic(id, args)
}

func (h *captureHooks) Poll() error { return h.inner.Poll() }

func TestWatchpointHitCarriesStack(t *testing.T) {
	mb := tir.NewModuleBuilder()
	writer := mb.Func("writer", 1)
	v := writer.NewReg()
	writer.ConstI(v, 1)
	writer.Store64(v, writer.Param(0), 0)
	writer.Ret(-1)
	writer.Seal()
	fb := mb.Func("main", 0)
	a := fb.NewReg()
	fb.ConstI(a, int64(mem.HeapBase+64))
	fb.Call(-1, writer.Index(), a)
	fb.Ret(-1)
	fb.Seal()
	mb.SetEntry("main")
	m := mb.MustBuild()

	vm := mem.New(mem.DefaultConfig())
	if err := vm.ArmWatchpoint(mem.HeapBase+64, 8); err != nil {
		t.Fatal(err)
	}
	var hits []WatchHit
	h := &stubHooks{}
	base, size := vm.StackRange(0)
	c := New(m, vm, h, base, size)
	c.OnWatch = func(hit WatchHit) { hits = append(hits, hit) }
	c.Start(m.Entry, nil)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %d, want 1", len(hits))
	}
	if hits[0].Stack[0].Func != "writer" {
		t.Fatalf("hit stack = %v", hits[0].Stack)
	}
}

func TestStackOverflowTraps(t *testing.T) {
	mb := tir.NewModuleBuilder()
	recIdx := mb.Declare("rec", 1)
	fb := mb.FuncBuilderFor(recIdx)
	fb.SetFrameSize(4096)
	r := fb.NewReg()
	fb.Call(r, recIdx, fb.Param(0))
	fb.Ret(r)
	fb.Seal()
	mn := mb.Func("main", 0)
	x := mn.NewReg()
	mn.ConstI(x, 0)
	mn.Call(x, recIdx, x)
	mn.Ret(x)
	mn.Seal()
	mb.SetEntry("main")
	_, _, err := run(t, mb.MustBuild())
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("want stack overflow trap, got %v", err)
	}
}
