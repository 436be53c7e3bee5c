package tir

import "fmt"

// ModuleBuilder assembles a Module incrementally. Function bodies are built
// through FuncBuilder, which provides virtual registers and forward-reference
// labels so that workloads can be synthesized programmatically.
type ModuleBuilder struct {
	mod     *Module
	nameSet map[string]bool
}

// NewModuleBuilder returns an empty builder.
func NewModuleBuilder() *ModuleBuilder {
	return &ModuleBuilder{mod: &Module{Entry: -1}, nameSet: make(map[string]bool)}
}

// Global declares a zero-initialized global of the given size and returns its
// index.
func (mb *ModuleBuilder) Global(name string, size int64) int {
	return mb.GlobalInit(name, size, nil)
}

// GlobalInit declares a global with initial contents and returns its index.
func (mb *ModuleBuilder) GlobalInit(name string, size int64, init []byte) int {
	if mb.nameSet["g:"+name] {
		panic(fmt.Sprintf("tir: duplicate global %q", name))
	}
	mb.nameSet["g:"+name] = true
	if int64(len(init)) > size {
		panic(fmt.Sprintf("tir: global %q init larger than size", name))
	}
	mb.mod.Globals = append(mb.mod.Globals, Global{Name: name, Size: size, Init: init})
	return len(mb.mod.Globals) - 1
}

// Func starts a new function with the given number of parameters and returns
// its builder. Parameters occupy registers 0..numParams-1.
func (mb *ModuleBuilder) Func(name string, numParams int) *FuncBuilder {
	if mb.nameSet["f:"+name] {
		panic(fmt.Sprintf("tir: duplicate function %q", name))
	}
	mb.nameSet["f:"+name] = true
	f := &Function{Name: name, NumParams: numParams, NumRegs: numParams}
	mb.mod.Funcs = append(mb.mod.Funcs, f)
	return &FuncBuilder{mb: mb, fn: f, index: len(mb.mod.Funcs) - 1}
}

// Declare reserves a function index before its body exists, allowing mutual
// recursion and thread entry points referenced before definition.
func (mb *ModuleBuilder) Declare(name string, numParams int) int {
	fb := mb.Func(name, numParams)
	return fb.index
}

// FuncBuilderFor returns a builder appending to a previously Declared
// function.
func (mb *ModuleBuilder) FuncBuilderFor(index int) *FuncBuilder {
	return &FuncBuilder{mb: mb, fn: mb.mod.Funcs[index], index: index}
}

// SetEntry marks the named function as the program entry point.
func (mb *ModuleBuilder) SetEntry(name string) {
	idx := mb.mod.FuncIndex(name)
	if idx < 0 {
		panic(fmt.Sprintf("tir: entry function %q not defined", name))
	}
	mb.mod.Entry = idx
}

// Build validates and returns the finished module.
func (mb *ModuleBuilder) Build() (*Module, error) {
	if err := Validate(mb.mod); err != nil {
		return nil, err
	}
	return mb.mod, nil
}

// MustBuild is Build that panics on error; intended for tests and statically
// known-correct workload generators.
func (mb *ModuleBuilder) MustBuild() *Module {
	m, err := mb.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// Reg is a virtual register index within one function.
type Reg = int32

// Label identifies a jump target that may be bound after it is referenced.
type Label int

// FuncBuilder builds one function's body.
type FuncBuilder struct {
	mb    *ModuleBuilder
	fn    *Function
	index int

	labels  []int // label -> pc, -1 while unbound
	patches []patch
}

type patch struct {
	pc    int
	label Label
}

// Index returns the function's index in the module.
func (fb *FuncBuilder) Index() int { return fb.index }

// NewReg allocates a fresh virtual register.
func (fb *FuncBuilder) NewReg() Reg {
	r := Reg(fb.fn.NumRegs)
	fb.fn.NumRegs++
	return r
}

// Param returns the register holding parameter i.
func (fb *FuncBuilder) Param(i int) Reg {
	if i >= fb.fn.NumParams {
		panic("tir: param index out of range")
	}
	return Reg(i)
}

// SetFrameSize reserves bytes of virtual stack for this function.
func (fb *FuncBuilder) SetFrameSize(n int64) { fb.fn.FrameSize = n }

// NewLabel creates an unbound label.
func (fb *FuncBuilder) NewLabel() Label {
	fb.labels = append(fb.labels, -1)
	return Label(len(fb.labels) - 1)
}

// Bind attaches a label to the next emitted instruction.
func (fb *FuncBuilder) Bind(l Label) {
	if fb.labels[l] != -1 {
		panic("tir: label bound twice")
	}
	fb.labels[l] = len(fb.fn.Code)
}

// Emit appends a raw instruction and returns its pc.
func (fb *FuncBuilder) Emit(in Instr) int {
	fb.fn.Code = append(fb.fn.Code, in)
	return len(fb.fn.Code) - 1
}

// --- convenience emitters ---

// ConstI sets dst to an integer constant.
func (fb *FuncBuilder) ConstI(dst Reg, v int64) {
	fb.Emit(Instr{Op: ConstI, A: dst, Imm: v})
}

// Mov copies src into dst.
func (fb *FuncBuilder) Mov(dst, src Reg) { fb.Emit(Instr{Op: Mov, A: dst, B: src}) }

// Bin emits a three-register arithmetic or comparison instruction.
func (fb *FuncBuilder) Bin(op Op, dst, a, b Reg) {
	fb.Emit(Instr{Op: op, A: dst, B: a, C: b})
}

// AddI emits dst = a + imm.
func (fb *FuncBuilder) AddI(dst, a Reg, imm int64) {
	fb.Emit(Instr{Op: AddI, A: dst, B: a, Imm: imm})
}

// Jmp emits an unconditional jump to l.
func (fb *FuncBuilder) Jmp(l Label) {
	pc := fb.Emit(Instr{Op: Jmp})
	fb.patches = append(fb.patches, patch{pc, l})
}

// Br jumps to l when cond is nonzero.
func (fb *FuncBuilder) Br(cond Reg, l Label) {
	pc := fb.Emit(Instr{Op: Br, A: cond})
	fb.patches = append(fb.patches, patch{pc, l})
}

// Brz jumps to l when cond is zero.
func (fb *FuncBuilder) Brz(cond Reg, l Label) {
	pc := fb.Emit(Instr{Op: Brz, A: cond})
	fb.patches = append(fb.patches, patch{pc, l})
}

// Call emits a direct call; dst < 0 discards the result. args must be
// contiguous starting at args[0]; the builder copies them into a fresh
// contiguous window when they are not.
func (fb *FuncBuilder) Call(dst Reg, fn int, args ...Reg) {
	base := fb.contiguous(args)
	fb.Emit(Instr{Op: Call, A: dst, B: base, C: int32(len(args)), Imm: int64(fn)})
}

// Ret returns v; pass -1 to return zero.
func (fb *FuncBuilder) Ret(v Reg) { fb.Emit(Instr{Op: Ret, A: v}) }

// Load64 emits dst = mem[addr+off].
func (fb *FuncBuilder) Load64(dst, addr Reg, off int64) {
	fb.Emit(Instr{Op: Load64, A: dst, B: addr, Imm: off})
}

// Store64 emits mem[addr+off] = src.
func (fb *FuncBuilder) Store64(src, addr Reg, off int64) {
	fb.Emit(Instr{Op: Store64, A: src, B: addr, Imm: off})
}

// Load8 emits dst = byte at mem[addr+off].
func (fb *FuncBuilder) Load8(dst, addr Reg, off int64) {
	fb.Emit(Instr{Op: Load8, A: dst, B: addr, Imm: off})
}

// Store8 emits byte store of src to mem[addr+off].
func (fb *FuncBuilder) Store8(src, addr Reg, off int64) {
	fb.Emit(Instr{Op: Store8, A: src, B: addr, Imm: off})
}

// FrameAddr sets dst to the frame base plus off.
func (fb *FuncBuilder) FrameAddr(dst Reg, off int64) {
	fb.Emit(Instr{Op: FrameAddr, A: dst, Imm: off})
}

// GlobalAddr sets dst to the address of global gi.
func (fb *FuncBuilder) GlobalAddr(dst Reg, gi int) {
	fb.Emit(Instr{Op: GlobalAddr, A: dst, Imm: int64(gi)})
}

// Syscall emits dst = syscall(num, args...).
func (fb *FuncBuilder) Syscall(dst Reg, num int64, args ...Reg) {
	base := fb.contiguous(args)
	fb.Emit(Instr{Op: Syscall, A: dst, B: base, C: int32(len(args)), Imm: num})
}

// Intrin emits dst = intrinsic(id, args...).
func (fb *FuncBuilder) Intrin(dst Reg, id int64, args ...Reg) {
	base := fb.contiguous(args)
	fb.Emit(Instr{Op: Intrin, A: dst, B: base, C: int32(len(args)), Imm: id})
}

// contiguous returns the base register of args, copying into fresh registers
// when the caller's registers are not already a contiguous window.
func (fb *FuncBuilder) contiguous(args []Reg) int32 {
	if len(args) == 0 {
		return 0
	}
	ok := true
	for i := 1; i < len(args); i++ {
		if args[i] != args[0]+Reg(i) {
			ok = false
			break
		}
	}
	if ok {
		return args[0]
	}
	base := fb.NewReg()
	for i := 1; i < len(args); i++ {
		fb.NewReg()
	}
	for i, a := range args {
		fb.Mov(base+Reg(i), a)
	}
	return base
}

// Seal resolves labels. It must be called exactly once per function body.
func (fb *FuncBuilder) Seal() {
	for _, p := range fb.patches {
		target := fb.labels[p.label]
		if target == -1 {
			panic(fmt.Sprintf("tir: unbound label in %s", fb.fn.Name))
		}
		fb.fn.Code[p.pc].Imm = int64(target)
	}
	fb.patches = nil
}
