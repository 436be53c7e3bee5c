package tir

import "fmt"

// Validate checks structural well-formedness of a module: register bounds,
// branch targets, callee indices, and entry-point existence. The interpreter
// assumes a validated module and performs no per-instruction bounds checks on
// registers.
func Validate(m *Module) error {
	if m.Entry < 0 || m.Entry >= len(m.Funcs) {
		return fmt.Errorf("tir: module entry %d out of range (%d funcs)", m.Entry, len(m.Funcs))
	}
	if m.Funcs[m.Entry].NumParams != 0 {
		return fmt.Errorf("tir: entry %s must take no parameters", m.Funcs[m.Entry].Name)
	}
	for fi, f := range m.Funcs {
		if err := validateFunc(m, f); err != nil {
			return fmt.Errorf("tir: func %d (%s): %w", fi, f.Name, err)
		}
	}
	return nil
}

func validateFunc(m *Module, f *Function) error {
	if f.NumParams > f.NumRegs {
		return fmt.Errorf("params %d exceed regs %d", f.NumParams, f.NumRegs)
	}
	if len(f.Code) == 0 {
		return fmt.Errorf("empty body")
	}
	checkReg := func(pc int, r int32, allowNeg bool) error {
		if r < 0 {
			if allowNeg {
				return nil
			}
			return fmt.Errorf("pc %d: negative register", pc)
		}
		if int(r) >= f.NumRegs {
			return fmt.Errorf("pc %d: register %d out of range (%d regs)", pc, r, f.NumRegs)
		}
		return nil
	}
	for pc, in := range f.Code {
		if in.Op >= opCount {
			return fmt.Errorf("pc %d: invalid opcode %d", pc, in.Op)
		}
		switch in.Op {
		case Nop:
		case ConstI:
			if err := checkReg(pc, in.A, false); err != nil {
				return err
			}
		case Mov, Neg, Not, FNeg, FSqrt, ItoF, FtoI, AddI, MulI:
			if err := checkReg(pc, in.A, false); err != nil {
				return err
			}
			if err := checkReg(pc, in.B, false); err != nil {
				return err
			}
		case Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Sar,
			FAdd, FSub, FMul, FDiv, Eq, Ne, LtS, LeS, LtU, FLt, FLe:
			for _, r := range [3]int32{in.A, in.B, in.C} {
				if err := checkReg(pc, r, false); err != nil {
					return err
				}
			}
		case Jmp:
			if in.Imm < 0 || in.Imm >= int64(len(f.Code)) {
				return fmt.Errorf("pc %d: jump target %d out of range", pc, in.Imm)
			}
		case Br, Brz:
			if err := checkReg(pc, in.A, false); err != nil {
				return err
			}
			if in.Imm < 0 || in.Imm >= int64(len(f.Code)) {
				return fmt.Errorf("pc %d: branch target %d out of range", pc, in.Imm)
			}
		case Call:
			if err := checkReg(pc, in.A, true); err != nil {
				return err
			}
			if in.Imm < 0 || in.Imm >= int64(len(m.Funcs)) {
				return fmt.Errorf("pc %d: callee %d out of range", pc, in.Imm)
			}
			callee := m.Funcs[in.Imm]
			if int(in.C) != callee.NumParams {
				return fmt.Errorf("pc %d: call %s with %d args, want %d",
					pc, callee.Name, in.C, callee.NumParams)
			}
			if err := checkArgWindow(pc, f, in.B, in.C); err != nil {
				return err
			}
		case Ret:
			if err := checkReg(pc, in.A, true); err != nil {
				return err
			}
		case Load8, Load64:
			if err := checkReg(pc, in.A, false); err != nil {
				return err
			}
			if err := checkReg(pc, in.B, false); err != nil {
				return err
			}
		case Store8, Store64:
			if err := checkReg(pc, in.A, false); err != nil {
				return err
			}
			if err := checkReg(pc, in.B, false); err != nil {
				return err
			}
		case FrameAddr:
			if err := checkReg(pc, in.A, false); err != nil {
				return err
			}
			if f.FrameSize <= 0 {
				return fmt.Errorf("pc %d: frameaddr in function with no frame", pc)
			}
			if in.Imm < 0 || in.Imm >= f.FrameSize {
				return fmt.Errorf("pc %d: frame offset %d out of range [0,%d)", pc, in.Imm, f.FrameSize)
			}
		case GlobalAddr:
			if err := checkReg(pc, in.A, false); err != nil {
				return err
			}
			if in.Imm < 0 || in.Imm >= int64(len(m.Globals)) {
				return fmt.Errorf("pc %d: global %d out of range", pc, in.Imm)
			}
		case Syscall:
			if err := checkReg(pc, in.A, true); err != nil {
				return err
			}
			if err := checkArgWindow(pc, f, in.B, in.C); err != nil {
				return err
			}
		case Intrin:
			if err := checkReg(pc, in.A, true); err != nil {
				return err
			}
			if in.Imm <= 0 || in.Imm >= intrinCount {
				return fmt.Errorf("pc %d: invalid intrinsic %d", pc, in.Imm)
			}
			if err := checkArgWindow(pc, f, in.B, in.C); err != nil {
				return err
			}
		default:
			return fmt.Errorf("pc %d: unhandled opcode %s", pc, in.Op)
		}
	}
	// A function must not fall off its end: final instruction must be an
	// unconditional transfer.
	last := f.Code[len(f.Code)-1]
	switch last.Op {
	case Ret, Jmp, Intrin:
		// Intrin is allowed for thread_exit/abort tails; the interpreter
		// still traps if a non-terminating intrinsic falls off the end.
	default:
		return fmt.Errorf("falls off end (last op %s)", last.Op)
	}
	return nil
}

func checkArgWindow(pc int, f *Function, base, n int32) error {
	if n == 0 {
		return nil
	}
	if base < 0 || int(base)+int(n) > f.NumRegs {
		return fmt.Errorf("pc %d: arg window [%d,%d) out of range (%d regs)",
			pc, base, base+n, f.NumRegs)
	}
	return nil
}
