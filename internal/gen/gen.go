// Package gen generates random workload programs and differentially
// checks the whole replay stack against them.
//
// The paper's core claim is that replay is *identical* — exit code,
// output, and heap image reproduce byte-for-byte — yet the hand-written
// corpus in internal/workloads exercises only a dozen fixed shapes. This
// package makes scenario diversity self-sustaining: a seeded, fully
// deterministic generator emits small multithreaded programs over the
// same TIR surface the workloads use (mutex-disciplined shared counters,
// condvar handoffs, barrier phases, malloc/free churn, virtual file IO,
// recorded time queries), and a differential harness (diff.go) records
// each one and asserts the equivalences the rest of the repo promises:
// whole-trace replay identity, segment-vs-whole stitching, analyzer
// zero-false-positives, and identity across compaction and flight-ring
// spills.
//
// Generation has two modes. ModeRaceFree programs are race-free by
// construction — every shared access happens under the cell's mutex, and
// all other state is thread-private — so any data-race finding is a false
// positive. ModeRacy programs additionally plant one unlocked
// read-modify-write pair on a dedicated global cell, executed by exactly
// two threads recorded in Prog.Race; the race is on *data only* (the racy
// value never flows into control flow, output, or the exit code), so the
// recording still replays identically while the analyzer must report the
// planted pair and nothing else.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/tir"
	"repro/internal/vsys"
)

// Mode selects the generator's race discipline.
type Mode int

const (
	// ModeRaceFree generates lock-disciplined programs: zero race findings
	// expected.
	ModeRaceFree Mode = iota
	// ModeRacy plants one unlocked racing pair on a dedicated cell and
	// records it in Prog.Race.
	ModeRacy
)

// OpKind enumerates the per-round operations a generated thread performs.
type OpKind int

const (
	// OpInc locks shared cell Cell's mutex, increments the cell, folds the
	// new value into the thread accumulator, and unlocks. Lock-ordered, so
	// race-free; the recorded acquisition order makes the accumulated value
	// replay-deterministic.
	OpInc OpKind = iota
	// OpWork is N iterations of branchy integer work (odd/even split) on
	// the private accumulator — epoch filler that stresses nothing shared.
	OpWork
	// OpAlloc mallocs N bytes, writes and reads back the round index, and
	// frees — allocation churn with no leak.
	OpAlloc
	// OpRead reads N bytes from the program's input file into the thread's
	// private scratch slot and adds the byte count to the accumulator
	// (revocable syscall traffic).
	OpRead
	// OpTime queries gettimeofday and xors the (recorded) value into the
	// accumulator.
	OpTime
	// OpYield is a scheduling hint — an interception point with no state.
	OpYield
	// OpRace performs an unlocked load/add/store on the dedicated racy
	// cell. Only ModeRacy emits it, on exactly the two Prog.Race threads.
	// The value never flows anywhere observable.
	OpRace

	numOpKinds
)

// Op is one generated operation.
type Op struct {
	Kind OpKind
	// Cell indexes the shared cell (and its mutex) for OpInc.
	Cell int
	// N parameterizes OpWork (iterations), OpAlloc (bytes), OpRead (bytes).
	N int
}

// RacePair names the two threads that execute the planted OpRace.
type RacePair struct {
	T1, T2 int
}

// Prog is a generated program: per-thread op sequences executed Rounds
// times, under optional barrier phasing and a producer/consumer condvar
// handoff. It lowers to TIR via Build and prints/parses via Marshal and
// Parse (spec.go).
type Prog struct {
	// Seed reproduces the generation (0 for hand-written specs).
	Seed int64
	// Threads is the worker count; each worker gets its own function
	// (gw0, gw1, …) so analyzer findings identify threads by frame.
	Threads int
	// Cells is the shared-counter count; the generated program protects
	// cell i with its own dedicated lock (the lock<i> globals).
	Cells int
	// Rounds is the per-thread outer loop count.
	Rounds int
	// BarrierEvery makes every thread wait at a shared barrier each N
	// rounds (0 disables).
	BarrierEvery int
	// Handoff adds a producer/consumer condvar token handoff each round
	// between threads 0 and 1 (requires Threads >= 2).
	Handoff bool
	// Body holds each thread's op sequence, executed once per round.
	Body [][]Op
	// Race, when non-nil, marks the program ModeRacy and names the two
	// threads carrying the planted OpRace pair.
	Race *RacePair
}

// WorkerFunc returns the TIR function name of thread i's worker.
func WorkerFunc(i int) string { return fmt.Sprintf("gw%d", i) }

// InputFile is the virtual file OpRead consumes (see SetupOS).
const InputFile = "gen.dat"

// scratchSlot is each thread's private scratch region; OpRead.N is capped
// well below it.
const scratchSlot = 2048

// Generate derives a program from seed. The same (seed, mode) pair always
// yields the same program: generation draws only from its own PRNG.
func Generate(seed int64, mode Mode) *Prog {
	r := rand.New(rand.NewSource(seed))
	p := &Prog{
		Seed:    seed,
		Threads: 2 + r.Intn(3),
		Cells:   1 + r.Intn(3),
		Rounds:  2 + r.Intn(4),
	}
	if r.Intn(3) == 0 {
		p.BarrierEvery = 1 + r.Intn(2)
	}
	p.Handoff = r.Intn(4) == 0
	p.Body = make([][]Op, p.Threads)
	for t := 0; t < p.Threads; t++ {
		n := 1 + r.Intn(5)
		ops := make([]Op, 0, n+1)
		hasInc := false
		for i := 0; i < n; i++ {
			op := randomOp(r, p.Cells)
			hasInc = hasInc || op.Kind == OpInc
			ops = append(ops, op)
		}
		if !hasInc {
			// Every thread takes at least one lock per round so recorded
			// synchronization traffic (and therefore epoch turnover under a
			// small event cap) is guaranteed.
			ops = append([]Op{{Kind: OpInc, Cell: r.Intn(p.Cells)}}, ops...)
		}
		p.Body[t] = ops
	}
	if mode == ModeRacy {
		t1 := r.Intn(p.Threads)
		t2 := r.Intn(p.Threads - 1)
		if t2 >= t1 {
			t2++
		}
		p.Race = &RacePair{T1: t1, T2: t2}
		p.Body[t1] = append(p.Body[t1], Op{Kind: OpRace})
		p.Body[t2] = append(p.Body[t2], Op{Kind: OpRace})
	}
	return p
}

// randomOp draws one weighted race-free op.
func randomOp(r *rand.Rand, cells int) Op {
	switch w := r.Intn(100); {
	case w < 40:
		return Op{Kind: OpInc, Cell: r.Intn(cells)}
	case w < 60:
		return Op{Kind: OpWork, N: 8 + r.Intn(120)}
	case w < 75:
		return Op{Kind: OpAlloc, N: 16 + 16*r.Intn(12)}
	case w < 85:
		return Op{Kind: OpRead, N: 16 + 16*r.Intn(8)}
	case w < 95:
		return Op{Kind: OpTime}
	default:
		return Op{Kind: OpYield}
	}
}

// Ops returns the total op count across all thread bodies — the size a
// shrinker minimizes.
func (p *Prog) Ops() int {
	n := 0
	for _, body := range p.Body {
		n += len(body)
	}
	return n
}

// Racy reports whether the program carries a planted race.
func (p *Prog) Racy() bool { return p.Race != nil }

// Reads reports whether any thread performs file IO (SetupOS must install
// the input file).
func (p *Prog) Reads() bool {
	for _, body := range p.Body {
		for _, op := range body {
			if op.Kind == OpRead {
				return true
			}
		}
	}
	return false
}

// Validate checks structural invariants: the lowering and the shrinker
// both refuse malformed programs.
func (p *Prog) Validate() error {
	if p.Threads < 1 {
		return fmt.Errorf("gen: need at least one thread, have %d", p.Threads)
	}
	if p.Cells < 1 {
		return fmt.Errorf("gen: need at least one cell, have %d", p.Cells)
	}
	if p.Rounds < 1 {
		return fmt.Errorf("gen: need at least one round, have %d", p.Rounds)
	}
	if len(p.Body) != p.Threads {
		return fmt.Errorf("gen: %d thread bodies for %d threads", len(p.Body), p.Threads)
	}
	if p.Handoff && p.Threads < 2 {
		return fmt.Errorf("gen: condvar handoff needs two threads")
	}
	if p.BarrierEvery < 0 {
		return fmt.Errorf("gen: negative barrier interval")
	}
	raceThreads := map[int]bool{}
	for t, body := range p.Body {
		for i, op := range body {
			switch op.Kind {
			case OpInc:
				if op.Cell < 0 || op.Cell >= p.Cells {
					return fmt.Errorf("gen: thread %d op %d: cell %d out of range [0,%d)", t, i, op.Cell, p.Cells)
				}
			case OpWork:
				if op.N < 1 || op.N > 4096 {
					return fmt.Errorf("gen: thread %d op %d: work count %d out of range", t, i, op.N)
				}
			case OpAlloc:
				if op.N < 8 || op.N > 4096 {
					return fmt.Errorf("gen: thread %d op %d: alloc size %d out of range", t, i, op.N)
				}
			case OpRead:
				if op.N < 1 || op.N > scratchSlot {
					return fmt.Errorf("gen: thread %d op %d: read size %d out of range", t, i, op.N)
				}
			case OpTime, OpYield:
			case OpRace:
				raceThreads[t] = true
			default:
				return fmt.Errorf("gen: thread %d op %d: unknown kind %d", t, i, op.Kind)
			}
		}
	}
	if p.Race == nil {
		if len(raceThreads) != 0 {
			return fmt.Errorf("gen: race ops present but no race pair declared")
		}
		return nil
	}
	if p.Race.T1 == p.Race.T2 || p.Race.T1 < 0 || p.Race.T2 < 0 ||
		p.Race.T1 >= p.Threads || p.Race.T2 >= p.Threads {
		return fmt.Errorf("gen: invalid race pair %d/%d for %d threads", p.Race.T1, p.Race.T2, p.Threads)
	}
	if len(raceThreads) != 2 || !raceThreads[p.Race.T1] || !raceThreads[p.Race.T2] {
		return fmt.Errorf("gen: race ops must appear on exactly the declared pair %d/%d", p.Race.T1, p.Race.T2)
	}
	return nil
}

// genGlobals carries the lowered module's shared state indices.
type genGlobals struct {
	locks   []int // one mutex per cell
	shared  int   // 8*Cells counter array
	racy    int   // dedicated unlocked cell (ModeRacy)
	barrier int
	condM   int
	cond    int
	tokens  int
	results int // 8*Threads published-pointer slots
	scratch int // scratchSlot*Threads private buffers
	path    int
	pathLen int
}

// Build lowers the program to a TIR module. Each thread gets its own
// worker function (WorkerFunc(i)) so race findings name the planted pair
// precisely; main creates and joins every worker, then prints the summed
// accumulators — deterministic output for the replay oracle.
func (p *Prog) Build() (*tir.Module, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mb := tir.NewModuleBuilder()
	g := genGlobals{locks: make([]int, p.Cells)}
	for i := range g.locks {
		g.locks[i] = mb.Global(fmt.Sprintf("lock%d", i), 8)
	}
	g.shared = mb.Global("shared", 8*int64(p.Cells))
	g.racy = mb.Global("racycell", 8)
	g.barrier = mb.Global("barrier", 8)
	g.condM = mb.Global("condm", 8)
	g.cond = mb.Global("cond", 8)
	g.tokens = mb.Global("tokens", 8)
	g.results = mb.Global("results", 8*int64(p.Threads))
	g.scratch = mb.Global("scratch", scratchSlot*int64(p.Threads))
	g.path = mb.GlobalInit("path", 16, []byte(InputFile))
	g.pathLen = len(InputFile)

	workers := make([]int, p.Threads)
	for t := 0; t < p.Threads; t++ {
		workers[t] = p.buildWorker(mb, g, t)
	}

	m := mb.Func("main", 0)
	if p.BarrierEvery > 0 {
		ba, n := m.NewReg(), m.NewReg()
		m.GlobalAddr(ba, g.barrier)
		m.ConstI(n, int64(p.Threads))
		m.Intrin(-1, tir.IntrinBarrierInit, ba, n)
	}
	fnr, argr := m.NewReg(), m.NewReg()
	tids := make([]tir.Reg, p.Threads)
	for t := 0; t < p.Threads; t++ {
		tids[t] = m.NewReg()
		m.ConstI(fnr, int64(workers[t]))
		m.ConstI(argr, int64(t))
		m.Intrin(tids[t], tir.IntrinThreadCreate, fnr, argr)
	}
	sum := m.NewReg()
	m.ConstI(sum, 0)
	for t := 0; t < p.Threads; t++ {
		r := m.NewReg()
		m.Intrin(r, tir.IntrinThreadJoin, tids[t])
		m.Bin(tir.Add, sum, sum, r)
	}
	// Main-only output: the joins order it after every worker, so the
	// printed lines are replay-deterministic even though vthreads are real
	// goroutines.
	m.Intrin(-1, tir.IntrinPrint, sum)
	m.Ret(sum)
	m.Seal()
	mb.SetEntry("main")
	return mb.Build()
}

// buildWorker lowers thread t's body.
func (p *Prog) buildWorker(mb *tir.ModuleBuilder, g genGlobals, t int) int {
	fb := mb.Func(WorkerFunc(t), 1)

	acc, one := fb.NewReg(), fb.NewReg()
	fb.ConstI(acc, 0)
	fb.ConstI(one, 1)

	// This thread's private scratch slot, at a build-time-constant offset.
	scr := fb.NewReg()
	fb.GlobalAddr(scr, g.scratch)
	fb.AddI(scr, scr, int64(t)*scratchSlot)

	needsFD := false
	for _, op := range p.Body[t] {
		if op.Kind == OpRead {
			needsFD = true
		}
	}
	fd := fb.NewReg()
	if needsFD {
		pa, pl := fb.NewReg(), fb.NewReg()
		fb.GlobalAddr(pa, g.path)
		fb.ConstI(pl, int64(g.pathLen))
		fb.Syscall(fd, vsys.SysOpen, pa, pl)
	}

	round, lim, cond := fb.NewReg(), fb.NewReg(), fb.NewReg()
	fb.ConstI(round, 0)
	fb.ConstI(lim, int64(p.Rounds))
	loop, done := fb.NewLabel(), fb.NewLabel()
	fb.Bind(loop)
	fb.Bin(tir.LtS, cond, round, lim)
	fb.Brz(cond, done)

	for _, op := range p.Body[t] {
		p.emitOp(fb, g, t, op, acc, one, round, scr, fd)
	}

	if p.Handoff && t <= 1 {
		p.emitHandoff(fb, g, t, one)
	}

	if p.BarrierEvery > 0 {
		be, rem := fb.NewReg(), fb.NewReg()
		fb.ConstI(be, int64(p.BarrierEvery))
		fb.Bin(tir.Rem, rem, round, be)
		skip := fb.NewLabel()
		fb.Br(rem, skip)
		ba := fb.NewReg()
		fb.GlobalAddr(ba, g.barrier)
		fb.Intrin(-1, tir.IntrinBarrierWait, ba)
		fb.Bind(skip)
	}

	fb.AddI(round, round, 1)
	fb.Jmp(loop)
	fb.Bind(done)

	// Publish the accumulator into a live heap object and park its pointer
	// in this thread's results slot: the final heap image carries every
	// thread's computed value (making the byte-identity diff meaningful)
	// and the pointer stays reachable, so the leak analyzer stays silent.
	pub, psz, ra := fb.NewReg(), fb.NewReg(), fb.NewReg()
	fb.ConstI(psz, 32)
	fb.Intrin(pub, tir.IntrinMalloc, psz)
	fb.Store64(acc, pub, 0)
	fb.Store64(round, pub, 8)
	fb.GlobalAddr(ra, g.results)
	fb.Store64(pub, ra, int64(t)*8)
	fb.Ret(acc)
	fb.Seal()
	return fb.Index()
}

// emitOp lowers one op inside the round loop.
func (p *Prog) emitOp(fb *tir.FuncBuilder, g genGlobals, t int, op Op, acc, one, round, scr, fd tir.Reg) {
	switch op.Kind {
	case OpInc:
		ma, sa, v := fb.NewReg(), fb.NewReg(), fb.NewReg()
		fb.GlobalAddr(ma, g.locks[op.Cell])
		fb.Intrin(-1, tir.IntrinMutexLock, ma)
		fb.GlobalAddr(sa, g.shared)
		fb.Load64(v, sa, int64(op.Cell)*8)
		fb.Bin(tir.Add, v, v, one)
		fb.Store64(v, sa, int64(op.Cell)*8)
		// The observed counter value depends only on the recorded lock
		// acquisition order, so folding it into the accumulator is
		// replay-deterministic.
		fb.Bin(tir.Add, acc, acc, v)
		fb.Intrin(-1, tir.IntrinMutexUnlock, ma)
	case OpWork:
		j, jl, jc, bit := fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg()
		fb.ConstI(j, 0)
		fb.ConstI(jl, int64(op.N))
		jLoop, jDone, jOdd, jNext := fb.NewLabel(), fb.NewLabel(), fb.NewLabel(), fb.NewLabel()
		fb.Bind(jLoop)
		fb.Bin(tir.LtS, jc, j, jl)
		fb.Brz(jc, jDone)
		fb.Bin(tir.And, bit, j, one)
		fb.Br(bit, jOdd)
		fb.Bin(tir.Add, acc, acc, j)
		fb.Jmp(jNext)
		fb.Bind(jOdd)
		fb.Bin(tir.Xor, acc, acc, j)
		fb.Bind(jNext)
		fb.AddI(j, j, 1)
		fb.Jmp(jLoop)
		fb.Bind(jDone)
	case OpAlloc:
		sz, ptr, v := fb.NewReg(), fb.NewReg(), fb.NewReg()
		fb.ConstI(sz, int64(op.N))
		fb.Intrin(ptr, tir.IntrinMalloc, sz)
		fb.Store64(round, ptr, 0)
		fb.Load64(v, ptr, 0)
		fb.Bin(tir.Add, acc, acc, v)
		fb.Intrin(-1, tir.IntrinFree, ptr)
	case OpRead:
		n, want := fb.NewReg(), fb.NewReg()
		fb.ConstI(want, int64(op.N))
		fb.Syscall(n, vsys.SysRead, fd, scr, want)
		fb.Bin(tir.Add, acc, acc, n)
	case OpTime:
		tv := fb.NewReg()
		fb.Syscall(tv, vsys.SysGettimeofday)
		fb.Bin(tir.Xor, acc, acc, tv)
	case OpYield:
		fb.Intrin(-1, tir.IntrinYield)
	case OpRace:
		// Unlocked read-modify-write on the dedicated cell. The value is
		// deliberately dead: lost updates change no output, exit code, or
		// heap byte, so recordings of racy programs still replay
		// identically while the analyzer must see the pair.
		ra, v := fb.NewReg(), fb.NewReg()
		fb.GlobalAddr(ra, g.racy)
		fb.Load64(v, ra, 0)
		fb.Bin(tir.Add, v, v, one)
		fb.Store64(v, ra, 0)
	}
}

// emitHandoff lowers the per-round producer/consumer token exchange for
// threads 0 (producer) and 1 (consumer). It precedes the barrier phase in
// the round body, so a produced token is always available before either
// side can park at the barrier — no cross-primitive deadlock.
func (p *Prog) emitHandoff(fb *tir.FuncBuilder, g genGlobals, t int, one tir.Reg) {
	ma, ca, ta, v := fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg()
	fb.GlobalAddr(ma, g.condM)
	fb.GlobalAddr(ca, g.cond)
	fb.GlobalAddr(ta, g.tokens)
	if t == 0 {
		fb.Intrin(-1, tir.IntrinMutexLock, ma)
		fb.Load64(v, ta, 0)
		fb.Bin(tir.Add, v, v, one)
		fb.Store64(v, ta, 0)
		fb.Intrin(-1, tir.IntrinCondSignal, ca)
		fb.Intrin(-1, tir.IntrinMutexUnlock, ma)
		return
	}
	fb.Intrin(-1, tir.IntrinMutexLock, ma)
	waitLoop, got := fb.NewLabel(), fb.NewLabel()
	fb.Bind(waitLoop)
	fb.Load64(v, ta, 0)
	fb.Br(v, got)
	fb.Intrin(-1, tir.IntrinCondWait, ca, ma)
	fb.Jmp(waitLoop)
	fb.Bind(got)
	fb.Bin(tir.Sub, v, v, one)
	fb.Store64(v, ta, 0)
	fb.Intrin(-1, tir.IntrinMutexUnlock, ma)
}

// SetupOS installs the input file OpRead consumes, sized so no read hits
// EOF. The byte pattern is a pure function of position, so recording and
// replay environments agree.
func (p *Prog) SetupOS(os *vsys.OS) {
	if !p.Reads() {
		return
	}
	max := 0
	for _, body := range p.Body {
		n := 0
		for _, op := range body {
			if op.Kind == OpRead {
				n += op.N
			}
		}
		if n > max {
			max = n
		}
	}
	data := make([]byte, max*p.Rounds+1024)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	os.AddFile(InputFile, data)
}
