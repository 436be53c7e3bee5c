// Package tir defines the Thread Intermediate Representation: a small
// register-based instruction set executed by package interp.
//
// TIR exists because the paper's mechanisms — getcontext/setcontext thread
// checkpoints, interception of every synchronization and system call, and
// hardware watchpoints — have no equivalent for native goroutines. Programs
// under test are expressed in TIR so that their complete execution state
// (registers, program counter, call frames, and a virtual stack) is ordinary
// Go data that can be checkpointed at an epoch boundary and restored on
// rollback, exactly as iReplayer does with native threads.
package tir

import "fmt"

// Op is a TIR opcode.
type Op uint8

// Instruction opcodes. The operand convention is given per opcode; A, B, C
// are register indices unless stated otherwise, and Imm is a 64-bit
// immediate whose meaning depends on the opcode.
const (
	// Nop does nothing.
	Nop Op = iota
	// ConstI: regs[A] = Imm.
	ConstI
	// Mov: regs[A] = regs[B].
	Mov

	// Integer arithmetic: regs[A] = regs[B] <op> regs[C], two's complement.
	Add
	Sub
	Mul
	Div // signed; divide by zero traps
	Rem // signed; divide by zero traps
	And
	Or
	Xor
	Shl
	Shr // logical
	Sar // arithmetic
	// AddI: regs[A] = regs[B] + Imm.
	AddI
	// MulI: regs[A] = regs[B] * Imm.
	MulI
	// Neg: regs[A] = -regs[B].
	Neg
	// Not: regs[A] = ^regs[B].
	Not

	// Floating point (operands are IEEE-754 bit patterns in registers).
	FAdd
	FSub
	FMul
	FDiv
	FNeg
	FSqrt // regs[A] = sqrt(regs[B])
	ItoF  // regs[A] = float64(int64(regs[B]))
	FtoI  // regs[A] = int64(float64 value of regs[B])

	// Comparisons: regs[A] = 1 if true else 0.
	Eq
	Ne
	LtS // signed less-than
	LeS // signed less-or-equal
	LtU // unsigned less-than
	FLt
	FLe

	// Control flow.
	// Jmp: pc = Imm.
	Jmp
	// Br: if regs[A] != 0 then pc = Imm, else fall through.
	Br
	// Brz: if regs[A] == 0 then pc = Imm, else fall through.
	Brz
	// Call: invoke function Imm with arguments regs[B .. B+C-1]; the callee's
	// return value is stored in regs[A] (A < 0 discards it).
	Call
	// Ret: return regs[A] to the caller (A < 0 returns 0).
	Ret

	// Memory. Addresses are virtual-machine addresses (see package mem).
	// Load8/Load64: regs[A] = *(regs[B] + Imm).
	Load8
	Load64
	// Store8/Store64: *(regs[B] + Imm) = regs[A].
	Store8
	Store64
	// FrameAddr: regs[A] = fp + Imm, where fp is the frame's virtual-stack
	// base (valid only when the function declares FrameSize > 0).
	FrameAddr
	// GlobalAddr: regs[A] = address of global Imm.
	GlobalAddr

	// Syscall: regs[A] = syscall(Imm, regs[B .. B+C-1]). Syscall numbers are
	// defined by package vsys. Every syscall is an interception point.
	Syscall
	// Intrin: regs[A] = intrinsic(Imm, regs[B .. B+C-1]). Intrinsic IDs are
	// defined below. Synchronization intrinsics are interception points.
	Intrin

	opCount
)

// Intrinsic identifiers for the Intrin opcode.
const (
	// IntrinMutexLock (m): lock the mutex whose variable address is arg0.
	IntrinMutexLock int64 = iota + 1
	// IntrinMutexUnlock (m): unlock.
	IntrinMutexUnlock
	// IntrinMutexTryLock (m): returns 1 on acquisition, 0 otherwise.
	IntrinMutexTryLock
	// IntrinCondWait (c, m): wait on condition variable c with mutex m.
	IntrinCondWait
	// IntrinCondSignal (c): wake one waiter.
	IntrinCondSignal
	// IntrinCondBroadcast (c): wake all waiters.
	IntrinCondBroadcast
	// IntrinBarrierInit (b, n): initialize barrier for n parties.
	IntrinBarrierInit
	// IntrinBarrierWait (b): returns 1 for the serial thread, 0 otherwise.
	IntrinBarrierWait
	// IntrinThreadCreate (fn, arg): spawn a thread running function fn with
	// one argument; returns the new thread ID.
	IntrinThreadCreate
	// IntrinThreadJoin (tid): join a thread; returns its exit value.
	IntrinThreadJoin
	// IntrinThreadExit (v): terminate the calling thread with exit value v.
	IntrinThreadExit
	// IntrinMalloc (size): allocate; returns address (0 on failure).
	IntrinMalloc
	// IntrinCalloc (n, size): allocate zeroed; returns address.
	IntrinCalloc
	// IntrinFree (ptr): deallocate.
	IntrinFree
	// IntrinSelfTID (): returns the calling thread's ID.
	IntrinSelfTID
	// IntrinYield (): scheduling hint; also an interception point.
	IntrinYield
	// IntrinAtomicLoad (addr): 64-bit atomic load. Ad hoc synchronization:
	// deliberately NOT recorded, per the paper's §6 limitation.
	IntrinAtomicLoad
	// IntrinAtomicStore (addr, v): 64-bit atomic store (not recorded).
	IntrinAtomicStore
	// IntrinAtomicAdd (addr, v): returns the new value (not recorded).
	IntrinAtomicAdd
	// IntrinAtomicCAS (addr, old, new): returns 1 on success (not recorded).
	IntrinAtomicCAS
	// IntrinAtomicXchg (addr, v): returns the previous value (not recorded).
	IntrinAtomicXchg
	// IntrinMemset (addr, byte, n).
	IntrinMemset
	// IntrinMemcpy (dst, src, n).
	IntrinMemcpy
	// IntrinPrint (v): debug print through the runtime.
	IntrinPrint
	// IntrinAbort (): abnormal exit (models abort(3)); ends the program.
	IntrinAbort
	// IntrinUsleep (n): sleep n virtual microseconds (scaled real delay);
	// used by racy workloads such as Crasher to widen race windows.
	IntrinUsleep
	intrinCount
)

// Instr is a single TIR instruction.
type Instr struct {
	Op      Op
	A, B, C int32
	Imm     int64
}

// Global describes one module global: a named, fixed-size region of the
// virtual machine's global segment.
type Global struct {
	Name string
	Size int64
	Init []byte // optional; len(Init) <= Size
}

// Function is one TIR function.
type Function struct {
	Name      string
	NumParams int
	NumRegs   int
	// FrameSize is the number of bytes of virtual stack to reserve for
	// address-taken locals; 0 for leaf computations.
	FrameSize int64
	Code      []Instr
}

// Module is a complete TIR program.
type Module struct {
	Funcs   []*Function
	Globals []Global
	// Entry is the index of the main function (invoked with no arguments).
	Entry int

	funcByName map[string]int
}

// FuncIndex returns the index of the named function, or -1.
func (m *Module) FuncIndex(name string) int {
	if m.funcByName == nil {
		m.funcByName = make(map[string]int, len(m.Funcs))
		for i, f := range m.Funcs {
			m.funcByName[f.Name] = i
		}
	}
	if i, ok := m.funcByName[name]; ok {
		return i
	}
	return -1
}

// GlobalIndex returns the index of the named global, or -1.
func (m *Module) GlobalIndex(name string) int {
	for i := range m.Globals {
		if m.Globals[i].Name == name {
			return i
		}
	}
	return -1
}

var opNames = [...]string{
	Nop: "nop", ConstI: "consti", Mov: "mov",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr", Sar: "sar",
	AddI: "addi", MulI: "muli", Neg: "neg", Not: "not",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FNeg: "fneg",
	FSqrt: "fsqrt", ItoF: "itof", FtoI: "ftoi",
	Eq: "eq", Ne: "ne", LtS: "lts", LeS: "les", LtU: "ltu", FLt: "flt", FLe: "fle",
	Jmp: "jmp", Br: "br", Brz: "brz", Call: "call", Ret: "ret",
	Load8: "load8", Load64: "load64", Store8: "store8", Store64: "store64",
	FrameAddr: "frameaddr", GlobalAddr: "globaladdr",
	Syscall: "syscall", Intrin: "intrin",
}

// String returns the mnemonic for op.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

var intrinNames = map[int64]string{
	IntrinMutexLock: "mutex_lock", IntrinMutexUnlock: "mutex_unlock",
	IntrinMutexTryLock: "mutex_trylock",
	IntrinCondWait:     "cond_wait", IntrinCondSignal: "cond_signal",
	IntrinCondBroadcast: "cond_broadcast",
	IntrinBarrierInit:   "barrier_init", IntrinBarrierWait: "barrier_wait",
	IntrinThreadCreate: "thread_create", IntrinThreadJoin: "thread_join",
	IntrinThreadExit: "thread_exit",
	IntrinMalloc:     "malloc", IntrinCalloc: "calloc", IntrinFree: "free",
	IntrinSelfTID: "self_tid", IntrinYield: "yield",
	IntrinAtomicLoad: "atomic_load", IntrinAtomicStore: "atomic_store",
	IntrinAtomicAdd: "atomic_add", IntrinAtomicCAS: "atomic_cas",
	IntrinAtomicXchg: "atomic_xchg",
	IntrinMemset:     "memset", IntrinMemcpy: "memcpy",
	IntrinPrint: "print", IntrinAbort: "abort", IntrinUsleep: "usleep",
}

// IntrinName returns the mnemonic for an intrinsic ID.
func IntrinName(id int64) string {
	if s, ok := intrinNames[id]; ok {
		return s
	}
	return fmt.Sprintf("intrin(%d)", id)
}
