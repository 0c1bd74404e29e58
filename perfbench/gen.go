package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/jit"
	"repro/internal/tinyc"
)

// rng is a splitmix64 generator.  It is stable across Go releases, so one
// seed always yields byte-identical inputs, and every generated item draws
// from its own stream (seed, stream, index) so items can be generated in
// any order, or in parallel, with the same result.
type rng struct{ s uint64 }

func newRNG(seed int64, stream, index uint64) *rng {
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xbf58476d1ce4e5b9 ^ (index+1)*0x94d049bb133111eb}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// exp returns an Exp(1) variate, for Poisson inter-arrival gaps.
func (r *rng) exp() float64 {
	u := (float64(r.next()>>11) + 0.5) / (1 << 53)
	return -math.Log(u)
}

// Input streams: one per kind of generated item, so adding items of one
// kind never shifts the inputs of another.
const (
	streamTinyC uint64 = iota + 1
	streamBytecode
	streamSchedule
	streamArrivals
)

// tinycShape sizes generated tiny-C programs.
type tinycShape struct {
	MinStmts, MaxStmts int // statements over all functions
	MaxFuncs           int // 1..3: main plus up to two helpers
	Work               int // rough simulated instructions per call of main
}

// tinycProgram is one generated source with the reference result of
// main(Args[k]) in Want[k], computed by tinyc's AST interpreter.
type tinycProgram struct {
	Source string
	Args   []int32
	Want   []int32
	Stmts  int
	Funcs  int
	// head and tail surround the salt in Source.
	head, tail string
}

// withSalt returns the program's text with another salt: a different
// text, so a different cache key, with the same meaning and results.
func (p tinycProgram) withSalt(salt int) string {
	return p.head + saltText(salt) + p.tail
}

func saltText(salt int) string { return fmt.Sprintf("%d - %d", salt, salt) }

// callVariants is how many argument values each generated function is
// called with.
const callVariants = 4

// genTinyC generates program index of a stream: a main(int a) whose
// counted loop mixes arithmetic, branches, helper calls and an inner
// loop.  Every assignment reduces modulo a small constant, so values stay
// far from int32 overflow and the program's meaning does not depend on
// wrap-around.
func genTinyC(seed int64, index int, shape tinycShape) (tinycProgram, error) {
	r := newRNG(seed, streamTinyC, uint64(index))
	g := &tcGen{r: r}
	total := r.between(shape.MinStmts, shape.MaxStmts)
	nHelpers := r.intn(shape.MaxFuncs)
	var sb strings.Builder
	for h := 0; h < nHelpers; h++ {
		g.helper(&sb, h)
	}
	// main's fixed frame: four declarations, the loop, its increment and
	// the return; the loop body takes the rest of the statement budget.
	budget := total - g.stmts - 7
	if budget < 1 {
		budget = 1
	}
	var body strings.Builder
	cost := 0
	for budget > 0 {
		n, c := g.loopStmt(&body, nHelpers, budget)
		budget -= n
		g.stmts += n
		cost += c
	}
	trips := shape.Work / (cost + 6)
	if trips < 1 {
		trips = 1
	}
	if trips > 64 {
		trips = 64
	}
	// The salt (j's initial value, always 0) makes every program's text,
	// and so its cache key, unique; it does not change the result.
	fmt.Fprintf(&sb, "int main(int a) {\n  int acc = %d;\n  int b = a %% 1000 + %d;\n  int i = 0;\n  int j = ",
		r.intn(1000), r.intn(100))
	tail := fmt.Sprintf(";\n  while (i < %d) {\n%s    i = i + 1;\n  }\n  return (acc + b) %% 100003;\n}\n", trips, body.String())
	g.stmts += 7
	p := tinycProgram{head: sb.String(), tail: tail, Stmts: g.stmts, Funcs: nHelpers + 1}
	p.Source = p.withSalt(index)
	prog, err := tinyc.Parse(p.Source)
	if err != nil {
		return p, fmt.Errorf("generated program %d does not parse: %w\n%s", index, err, p.Source)
	}
	for k := 0; k < callVariants; k++ {
		a := int32(r.intn(5000))
		v, err := tinyc.NewInterp(prog).Call("main", tinyc.IntV(a))
		if err != nil {
			return p, fmt.Errorf("reference interpreter, program %d: %w", index, err)
		}
		p.Args = append(p.Args, a)
		p.Want = append(p.Want, v.I)
	}
	return p, nil
}

type tcGen struct {
	r     *rng
	stmts int
}

var tcCmp = []string{"<", "<=", ">", ">=", "==", "!="}

func (g *tcGen) operand(vars []string) string {
	if g.r.intn(3) == 0 {
		return fmt.Sprint(g.r.between(1, 97))
	}
	return vars[g.r.intn(len(vars))]
}

// expr is a binary expression over two operands; shallow, so no
// expression ever runs the register allocator dry.
func (g *tcGen) expr(vars []string) string {
	ops := []string{"+", "-", "*"}
	return fmt.Sprintf("%s %s %s", g.operand(vars), ops[g.r.intn(3)], g.operand(vars))
}

func (g *tcGen) helper(sb *strings.Builder, h int) {
	vars := []string{"x", "y", "t"}
	fmt.Fprintf(sb, "int h%d(int x, int y) {\n  int t = (%s) %% 211;\n", h, g.expr(vars[:2]))
	fmt.Fprintf(sb, "  if (t %s %d) {\n    t = (%s) %% 307;\n  } else {\n    t = (%s) %% 401;\n  }\n",
		tcCmp[g.r.intn(len(tcCmp))], g.r.between(-50, 150), g.expr(vars), g.expr(vars))
	fmt.Fprintf(sb, "  return t %% 101;\n}\n")
	g.stmts += 5
}

// loopStmt writes one statement of main's loop body and returns the
// statements it used and a rough cost in simulated instructions.
func (g *tcGen) loopStmt(sb *strings.Builder, helpers, budget int) (int, int) {
	vars := []string{"acc", "b", "i", "a"}
	kind := g.r.intn(6)
	if kind == 3 && helpers == 0 {
		kind = 0
	}
	if kind >= 4 && budget < 4 {
		kind = 1
	}
	switch kind {
	case 0:
		fmt.Fprintf(sb, "    acc = (acc + %s) %% 10007;\n", g.expr(vars))
		return 1, 14
	case 1:
		fmt.Fprintf(sb, "    b = (b * %d + %s) %% 1009;\n", g.r.between(2, 9), g.operand(vars))
		return 1, 14
	case 2:
		fmt.Fprintf(sb, "    if (%s %s %s) {\n      acc = (acc + %d) %% 10007;\n    } else {\n      b = (b + %s) %% 1009;\n    }\n",
			g.operand(vars), tcCmp[g.r.intn(len(tcCmp))], g.operand(vars), g.r.between(1, 500), g.expr(vars))
		return 3, 18
	case 3:
		fmt.Fprintf(sb, "    acc = (acc + h%d(%s, %s)) %% 10007;\n", g.r.intn(helpers), g.operand(vars), g.operand(vars))
		return 1, 60
	case 4:
		fmt.Fprintf(sb, "    j = 0;\n    while (j < %d) {\n      acc = (acc + j * %s) %% 10007;\n      j = j + 1;\n    }\n",
			g.r.between(2, 4), g.operand(vars))
		return 4, 60
	default:
		fmt.Fprintf(sb, "    if (acc %s b && i %s %d) {\n      b = (b + acc) %% 1009;\n    }\n",
			tcCmp[g.r.intn(len(tcCmp))], tcCmp[g.r.intn(len(tcCmp))], g.r.between(0, 20))
		return 2, 14
	}
}

// jitFunction is one generated bytecode function with the reference
// result of Fn(Args[k][0], Args[k][1]) in Want[k], computed by
// jit.Interp.  Args[k][0] is the bias argument: it is the same in every
// variant, so each branch on it always goes the same way.
type jitFunction struct {
	Fn   *jit.Func
	Args [][2]int32
	Want []int32
}

// bcAsm is a minimal stack-code assembler for the generator.
type bcAsm struct {
	f      *jit.Func
	consts map[int32]int
}

func (b *bcAsm) op(op jit.Op, a int) int {
	b.f.Code = append(b.f.Code, jit.Insn{Op: op, A: a})
	return len(b.f.Code) - 1
}

func (b *bcAsm) k(v int32) {
	i, ok := b.consts[v]
	if !ok {
		i = len(b.f.Consts)
		b.f.Consts = append(b.f.Consts, v)
		b.consts[v] = i
	}
	b.op(jit.OpPushK, i)
}

// Local variable slots of generated bytecode functions.
const (
	bvAcc = iota
	bvI
	bvV
	bvCount
)

// bytecodeWork is about how many bytecode instructions one call of a
// generated function executes: the loop's trip count is set from its
// body's length, so every function costs about the same.
const bytecodeWork = 2400

// genBytecode generates function index of a stream: a counted loop,
// about bytecodeWork instructions long, whose body mixes arithmetic with
// branches on the
// bias argument.  Those branches are decided by an argument that every
// call repeats, so a trained edge profile stays right for the whole run.
func genBytecode(seed int64, index int) (jitFunction, error) {
	r := newRNG(seed, streamBytecode, uint64(index))
	b := &bcAsm{f: &jit.Func{Name: fmt.Sprintf("g%d", index), NArgs: 2, NVars: bvCount}, consts: map[int32]int{}}
	set := func(v int, emit func()) {
		emit()
		b.op(jit.OpStoreVar, v)
	}
	mod := func(m int32) {
		b.k(m)
		b.op(jit.OpMod, 0)
	}
	set(bvAcc, func() { b.k(int32(r.intn(1000))) })
	set(bvI, func() { b.k(0) })
	set(bvV, func() { b.op(jit.OpLoadArg, 1); mod(97) })
	head := b.op(jit.OpLoadVar, bvI)
	tripsK := len(b.f.Consts) // patched once the body's length is known
	b.f.Consts = append(b.f.Consts, 0)
	b.op(jit.OpPushK, tripsK)
	b.op(jit.OpLt, 0)
	exit := b.op(jit.OpJz, -1)
	items := r.between(2, 5)
	biased := false
	for it := 0; it < items; it++ {
		kind := r.intn(4)
		if it == items-1 && !biased {
			kind = 1
		}
		switch kind {
		case 0: // acc = (acc + i*c) % m
			set(bvAcc, func() {
				b.op(jit.OpLoadVar, bvAcc)
				b.op(jit.OpLoadVar, bvI)
				b.k(int32(r.between(2, 31)))
				b.op(jit.OpMul, 0)
				b.op(jit.OpAdd, 0)
				mod(10007)
			})
		case 1: // if (x < c) acc = (acc + c1) % m else acc = (acc*c2 + v) % m
			biased = true
			b.op(jit.OpLoadArg, 0)
			b.k(int32(r.between(20, 80)))
			b.op(jit.OpLt, 0)
			jz := b.op(jit.OpJz, -1)
			set(bvAcc, func() {
				b.op(jit.OpLoadVar, bvAcc)
				b.k(int32(r.between(1, 500)))
				b.op(jit.OpAdd, 0)
				mod(10007)
			})
			jmp := b.op(jit.OpJmp, -1)
			b.f.Code[jz].A = len(b.f.Code)
			set(bvAcc, func() {
				b.op(jit.OpLoadVar, bvAcc)
				b.k(int32(r.between(2, 9)))
				b.op(jit.OpMul, 0)
				b.op(jit.OpLoadVar, bvV)
				b.op(jit.OpAdd, 0)
				mod(10007)
			})
			b.f.Code[jmp].A = len(b.f.Code)
		case 2: // v = (v*c + acc) % m
			set(bvV, func() {
				b.op(jit.OpLoadVar, bvV)
				b.k(int32(r.between(2, 9)))
				b.op(jit.OpMul, 0)
				b.op(jit.OpLoadVar, bvAcc)
				b.op(jit.OpAdd, 0)
				mod(1009)
			})
		default: // acc = (acc - v + c) % m
			set(bvAcc, func() {
				b.op(jit.OpLoadVar, bvAcc)
				b.op(jit.OpLoadVar, bvV)
				b.op(jit.OpSub, 0)
				b.k(int32(r.between(1, 99)))
				b.op(jit.OpAdd, 0)
				mod(10007)
			})
		}
	}
	set(bvI, func() {
		b.op(jit.OpLoadVar, bvI)
		b.k(1)
		b.op(jit.OpAdd, 0)
	})
	b.op(jit.OpJmp, head)
	b.f.Consts[tripsK] = int32(bytecodeWork / (len(b.f.Code) - head))
	b.f.Code[exit].A = len(b.f.Code)
	b.op(jit.OpLoadVar, bvAcc)
	b.op(jit.OpLoadVar, bvV)
	b.op(jit.OpAdd, 0)
	b.op(jit.OpRet, 0)

	jf := jitFunction{Fn: b.f}
	if _, err := b.f.Validate(); err != nil {
		return jf, fmt.Errorf("generated bytecode %d is invalid: %w", index, err)
	}
	x := int32(r.between(0, 15))
	if r.intn(2) == 0 {
		x = int32(r.between(85, 100))
	}
	for k := 0; k < callVariants; k++ {
		y := int32(r.intn(5000))
		want, _, err := jit.Interp(b.f, x, y)
		if err != nil {
			return jf, fmt.Errorf("reference interpreter, bytecode %d: %w", index, err)
		}
		jf.Args = append(jf.Args, [2]int32{x, y})
		jf.Want = append(jf.Want, want)
	}
	return jf, nil
}
