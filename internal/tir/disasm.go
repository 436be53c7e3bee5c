package tir

import (
	"fmt"
	"strings"
)

// DisasmInstr renders one instruction as assembler-like text.
func DisasmInstr(m *Module, in Instr) string {
	reg := func(r int32) string {
		if r < 0 {
			return "_"
		}
		return fmt.Sprintf("r%d", r)
	}
	switch in.Op {
	case Nop:
		return "nop"
	case ConstI:
		return fmt.Sprintf("consti %s, %d", reg(in.A), in.Imm)
	case Mov, Neg, Not, FNeg, FSqrt, ItoF, FtoI:
		return fmt.Sprintf("%s %s, %s", in.Op, reg(in.A), reg(in.B))
	case AddI, MulI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, reg(in.A), reg(in.B), in.Imm)
	case Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Sar,
		FAdd, FSub, FMul, FDiv, Eq, Ne, LtS, LeS, LtU, FLt, FLe:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, reg(in.A), reg(in.B), reg(in.C))
	case Jmp:
		return fmt.Sprintf("jmp @%d", in.Imm)
	case Br:
		return fmt.Sprintf("br %s, @%d", reg(in.A), in.Imm)
	case Brz:
		return fmt.Sprintf("brz %s, @%d", reg(in.A), in.Imm)
	case Call:
		name := fmt.Sprintf("f%d", in.Imm)
		if m != nil && in.Imm >= 0 && in.Imm < int64(len(m.Funcs)) {
			name = m.Funcs[in.Imm].Name
		}
		return fmt.Sprintf("call %s, %s(%s+%d)", reg(in.A), name, reg(in.B), in.C)
	case Ret:
		return fmt.Sprintf("ret %s", reg(in.A))
	case Load8, Load64:
		return fmt.Sprintf("%s %s, [%s+%d]", in.Op, reg(in.A), reg(in.B), in.Imm)
	case Store8, Store64:
		return fmt.Sprintf("%s [%s+%d], %s", in.Op, reg(in.B), in.Imm, reg(in.A))
	case FrameAddr:
		return fmt.Sprintf("frameaddr %s, fp+%d", reg(in.A), in.Imm)
	case GlobalAddr:
		name := fmt.Sprintf("g%d", in.Imm)
		if m != nil && in.Imm >= 0 && in.Imm < int64(len(m.Globals)) {
			name = m.Globals[in.Imm].Name
		}
		return fmt.Sprintf("globaladdr %s, %s", reg(in.A), name)
	case Syscall:
		return fmt.Sprintf("syscall %s, %d(%s+%d)", reg(in.A), in.Imm, reg(in.B), in.C)
	case Intrin:
		return fmt.Sprintf("intrin %s, %s(%s+%d)", reg(in.A), IntrinName(in.Imm), reg(in.B), in.C)
	default:
		return fmt.Sprintf("%s A=%d B=%d C=%d Imm=%d", in.Op, in.A, in.B, in.C, in.Imm)
	}
}

// DisasmFunc renders a whole function.
func DisasmFunc(m *Module, f *Function) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(params=%d regs=%d frame=%d):\n",
		f.Name, f.NumParams, f.NumRegs, f.FrameSize)
	for pc, in := range f.Code {
		fmt.Fprintf(&sb, "  %4d: %s\n", pc, DisasmInstr(m, in))
	}
	return sb.String()
}

// Disasm renders a whole module.
func Disasm(m *Module) string {
	var sb strings.Builder
	for i, g := range m.Globals {
		fmt.Fprintf(&sb, "global %d %s [%d bytes]\n", i, g.Name, g.Size)
	}
	for _, f := range m.Funcs {
		sb.WriteString(DisasmFunc(m, f))
	}
	return sb.String()
}
