package tir

import (
	"fmt"
	"strconv"
	"strings"

	"regexp"
)

// Assemble parses textual TIR assembly into a validated Module. The syntax
// mirrors the disassembler's output:
//
//	global counter 8
//	global banner 16 "hi"
//
//	func main/0 regs=3 frame=0 {
//	  consti r0, 10
//	loop:
//	  addi r0, r0, -1
//	  br r0, @loop
//	  ret r0
//	}
//
//	entry main
//
// Operand forms: registers rN (or _ for "discard"), immediates (decimal or
// 0x hex), label references @name, memory operands [rN+OFF], frame operands
// fp+OFF, call/syscall/intrinsic argument windows (rBASE+COUNT), global and
// function names.
func Assemble(src string) (*Module, error) {
	p := &asmParser{mb: NewModuleBuilder(), funcIdx: map[string]int{}}
	if err := p.run(src); err != nil {
		return nil, err
	}
	return p.mb.Build()
}

// MustAssemble is Assemble that panics on error (tests, embedded programs).
func MustAssemble(src string) *Module {
	m, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return m
}

type asmParser struct {
	mb      *ModuleBuilder
	funcIdx map[string]int

	fb     *FuncBuilder
	labels map[string]Label
	line   int
}

func (p *asmParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("tir asm: line %d: "+format, append([]interface{}{p.line}, args...)...)
}

var funcHeaderRE = regexp.MustCompile(`^func\s+(\w+)/(\d+)\s+regs=(\d+)(?:\s+frame=(\d+))?\s*\{$`)

func (p *asmParser) run(src string) error {
	// First pass: declare functions so calls can be forward references.
	for i, raw := range strings.Split(src, "\n") {
		p.line = i + 1
		line := stripComment(raw)
		if m := funcHeaderRE.FindStringSubmatch(line); m != nil {
			if _, dup := p.funcIdx[m[1]]; dup {
				return p.errf("duplicate function %q", m[1])
			}
			params, _ := strconv.Atoi(m[2])
			p.funcIdx[m[1]] = p.mb.Declare(m[1], params)
		}
	}
	// Second pass: globals, bodies, entry.
	for i, raw := range strings.Split(src, "\n") {
		p.line = i + 1
		line := stripComment(raw)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "global "):
			if p.fb != nil {
				return p.errf("global inside function body")
			}
			if err := p.global(line); err != nil {
				return err
			}
		case funcHeaderRE.MatchString(line):
			m := funcHeaderRE.FindStringSubmatch(line)
			if p.fb != nil {
				return p.errf("nested function")
			}
			p.fb = p.mb.FuncBuilderFor(p.funcIdx[m[1]])
			regs, _ := strconv.Atoi(m[3])
			for p.fb.fn.NumRegs < regs {
				p.fb.NewReg()
			}
			if m[4] != "" {
				fr, _ := strconv.Atoi(m[4])
				p.fb.SetFrameSize(int64(fr))
			}
			p.labels = map[string]Label{}
		case line == "}":
			if p.fb == nil {
				return p.errf("unmatched }")
			}
			for name, l := range p.labels {
				if p.fb.labels[l] == -1 {
					return p.errf("label %q referenced but never bound", name)
				}
			}
			p.fb.Seal()
			p.fb = nil
		case strings.HasPrefix(line, "entry "):
			name := strings.TrimSpace(strings.TrimPrefix(line, "entry "))
			if _, ok := p.funcIdx[name]; !ok {
				return p.errf("entry references unknown function %q", name)
			}
			p.mb.SetEntry(name)
		case strings.HasSuffix(line, ":") && p.fb != nil:
			name := strings.TrimSuffix(line, ":")
			p.fb.Bind(p.label(name))
		case p.fb != nil:
			if err := p.instr(line); err != nil {
				return err
			}
		default:
			return p.errf("statement outside function: %q", line)
		}
	}
	if p.fb != nil {
		return p.errf("unterminated function body")
	}
	return nil
}

func stripComment(s string) string {
	if i := strings.Index(s, ";"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

func (p *asmParser) global(line string) error {
	fields := splitQuoted(strings.TrimPrefix(line, "global "))
	if len(fields) < 2 {
		return p.errf("global needs a name and size")
	}
	size, err := strconv.ParseInt(fields[1], 0, 64)
	if err != nil || size <= 0 {
		return p.errf("bad global size %q", fields[1])
	}
	var init []byte
	if len(fields) == 3 {
		s, err := strconv.Unquote(fields[2])
		if err != nil {
			return p.errf("bad global initializer %q", fields[2])
		}
		init = []byte(s)
	}
	p.mb.GlobalInit(fields[0], size, init)
	return nil
}

// splitQuoted splits on spaces but keeps a trailing quoted string intact.
func splitQuoted(s string) []string {
	s = strings.TrimSpace(s)
	if i := strings.Index(s, `"`); i >= 0 {
		head := strings.Fields(s[:i])
		return append(head, strings.TrimSpace(s[i:]))
	}
	return strings.Fields(s)
}

func (p *asmParser) label(name string) Label {
	if l, ok := p.labels[name]; ok {
		return l
	}
	l := p.fb.NewLabel()
	p.labels[name] = l
	return l
}

func (p *asmParser) reg(tok string) (int32, error) {
	tok = strings.TrimSpace(tok)
	if tok == "_" {
		return -1, nil
	}
	if !strings.HasPrefix(tok, "r") {
		return 0, p.errf("expected register, got %q", tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 || n >= p.fb.fn.NumRegs {
		return 0, p.errf("bad register %q (function has %d regs)", tok, p.fb.fn.NumRegs)
	}
	return int32(n), nil
}

func (p *asmParser) imm(tok string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(tok), 0, 64)
	if err != nil {
		return 0, p.errf("bad immediate %q", tok)
	}
	return v, nil
}

var memRE = regexp.MustCompile(`^\[(r\d+)\s*([+-]\s*\d+)?\]$`)
var windowRE = regexp.MustCompile(`^(\w+)\((?:(r\d+)\+(\d+))?\)$`)

func (p *asmParser) instr(line string) error {
	op, rest, _ := strings.Cut(line, " ")
	args := splitArgs(rest)
	a := func(i int) string {
		if i < len(args) {
			return args[i]
		}
		return ""
	}
	threeReg := map[string]Op{
		"add": Add, "sub": Sub, "mul": Mul, "div": Div, "rem": Rem,
		"and": And, "or": Or, "xor": Xor, "shl": Shl, "shr": Shr, "sar": Sar,
		"fadd": FAdd, "fsub": FSub, "fmul": FMul, "fdiv": FDiv,
		"eq": Eq, "ne": Ne, "lts": LtS, "les": LeS, "ltu": LtU, "flt": FLt, "fle": FLe,
	}
	twoReg := map[string]Op{
		"mov": Mov, "neg": Neg, "not": Not, "fneg": FNeg, "fsqrt": FSqrt,
		"itof": ItoF, "ftoi": FtoI,
	}
	switch {
	case op == "nop":
		p.fb.Emit(Instr{Op: Nop})
	case op == "consti":
		r, err := p.reg(a(0))
		if err != nil {
			return err
		}
		v, err := p.imm(a(1))
		if err != nil {
			return err
		}
		p.fb.Emit(Instr{Op: ConstI, A: r, Imm: v})
	case twoReg[op] != 0:
		r1, err := p.reg(a(0))
		if err != nil {
			return err
		}
		r2, err := p.reg(a(1))
		if err != nil {
			return err
		}
		p.fb.Emit(Instr{Op: twoReg[op], A: r1, B: r2})
	case threeReg[op] != 0:
		r1, err := p.reg(a(0))
		if err != nil {
			return err
		}
		r2, err := p.reg(a(1))
		if err != nil {
			return err
		}
		r3, err := p.reg(a(2))
		if err != nil {
			return err
		}
		p.fb.Emit(Instr{Op: threeReg[op], A: r1, B: r2, C: r3})
	case op == "addi" || op == "muli":
		r1, err := p.reg(a(0))
		if err != nil {
			return err
		}
		r2, err := p.reg(a(1))
		if err != nil {
			return err
		}
		v, err := p.imm(a(2))
		if err != nil {
			return err
		}
		o := AddI
		if op == "muli" {
			o = MulI
		}
		p.fb.Emit(Instr{Op: o, A: r1, B: r2, Imm: v})
	case op == "jmp":
		if !strings.HasPrefix(a(0), "@") {
			return p.errf("jmp needs @label")
		}
		p.fb.Jmp(p.label(a(0)[1:]))
	case op == "br" || op == "brz":
		r, err := p.reg(a(0))
		if err != nil {
			return err
		}
		if !strings.HasPrefix(a(1), "@") {
			return p.errf("%s needs @label", op)
		}
		if op == "br" {
			p.fb.Br(r, p.label(a(1)[1:]))
		} else {
			p.fb.Brz(r, p.label(a(1)[1:]))
		}
	case op == "ret":
		r, err := p.reg(a(0))
		if err != nil {
			return err
		}
		p.fb.Ret(r)
	case op == "load8" || op == "load64":
		r, err := p.reg(a(0))
		if err != nil {
			return err
		}
		base, off, err := p.memOperand(a(1))
		if err != nil {
			return err
		}
		o := Load8
		if op == "load64" {
			o = Load64
		}
		p.fb.Emit(Instr{Op: o, A: r, B: base, Imm: off})
	case op == "store8" || op == "store64":
		base, off, err := p.memOperand(a(0))
		if err != nil {
			return err
		}
		r, err := p.reg(a(1))
		if err != nil {
			return err
		}
		o := Store8
		if op == "store64" {
			o = Store64
		}
		p.fb.Emit(Instr{Op: o, A: r, B: base, Imm: off})
	case op == "frameaddr":
		r, err := p.reg(a(0))
		if err != nil {
			return err
		}
		fpOff := strings.TrimPrefix(a(1), "fp+")
		v, err := p.imm(fpOff)
		if err != nil {
			return err
		}
		p.fb.Emit(Instr{Op: FrameAddr, A: r, Imm: v})
	case op == "globaladdr":
		r, err := p.reg(a(0))
		if err != nil {
			return err
		}
		gi := p.mb.mod.GlobalIndex(a(1))
		if gi < 0 {
			return p.errf("unknown global %q", a(1))
		}
		p.fb.Emit(Instr{Op: GlobalAddr, A: r, Imm: int64(gi)})
	case op == "call":
		r, err := p.reg(a(0))
		if err != nil {
			return err
		}
		name, base, count, err := p.window(a(1))
		if err != nil {
			return err
		}
		fi, ok := p.funcIdx[name]
		if !ok {
			return p.errf("unknown function %q", name)
		}
		p.fb.Emit(Instr{Op: Call, A: r, B: base, C: count, Imm: int64(fi)})
	case op == "syscall":
		r, err := p.reg(a(0))
		if err != nil {
			return err
		}
		name, base, count, err := p.window(a(1))
		if err != nil {
			return err
		}
		num, err := p.imm(name)
		if err != nil {
			return p.errf("syscall number must be numeric, got %q", name)
		}
		p.fb.Emit(Instr{Op: Syscall, A: r, B: base, C: count, Imm: num})
	case op == "intrin":
		r, err := p.reg(a(0))
		if err != nil {
			return err
		}
		name, base, count, err := p.window(a(1))
		if err != nil {
			return err
		}
		id, ok := intrinByName(name)
		if !ok {
			return p.errf("unknown intrinsic %q", name)
		}
		p.fb.Emit(Instr{Op: Intrin, A: r, B: base, C: count, Imm: id})
	default:
		return p.errf("unknown mnemonic %q", op)
	}
	return nil
}

func splitArgs(s string) []string {
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	if len(parts) == 1 && parts[0] == "" {
		return nil
	}
	return parts
}

func (p *asmParser) memOperand(tok string) (int32, int64, error) {
	m := memRE.FindStringSubmatch(strings.TrimSpace(tok))
	if m == nil {
		return 0, 0, p.errf("expected [rN+OFF] operand, got %q", tok)
	}
	r, err := p.reg(m[1])
	if err != nil {
		return 0, 0, err
	}
	var off int64
	if m[2] != "" {
		off, err = p.imm(strings.ReplaceAll(m[2], " ", ""))
		if err != nil {
			return 0, 0, err
		}
	}
	return r, off, nil
}

// window parses name(rBASE+COUNT) or name() argument windows.
func (p *asmParser) window(tok string) (string, int32, int32, error) {
	m := windowRE.FindStringSubmatch(strings.TrimSpace(tok))
	if m == nil {
		return "", 0, 0, p.errf("expected name(rN+COUNT) operand, got %q", tok)
	}
	if m[2] == "" {
		return m[1], 0, 0, nil
	}
	base, err := p.reg(m[2])
	if err != nil {
		return "", 0, 0, err
	}
	count, err := strconv.Atoi(m[3])
	if err != nil {
		return "", 0, 0, p.errf("bad arg count in %q", tok)
	}
	return m[1], base, int32(count), nil
}

func intrinByName(name string) (int64, bool) {
	for id, n := range intrinNames {
		if n == name {
			return id, true
		}
	}
	return 0, false
}
