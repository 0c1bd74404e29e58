package tinyc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/alpha"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mips"
	"repro/internal/sparc"
)

type target struct {
	name string
	mk   func() *core.Machine
}

func targets() []target {
	return []target{
		{"mips", func() *core.Machine {
			m := mem.New(1<<24, false)
			return core.NewMachine(mips.New(), mips.NewCPU(m), m)
		}},
		{"sparc", func() *core.Machine {
			m := mem.New(1<<24, true)
			return core.NewMachine(sparc.New(), sparc.NewCPU(m), m)
		}},
		{"alpha", func() *core.Machine {
			m := mem.New(1<<24, false)
			return core.NewMachine(alpha.New(), alpha.NewCPU(m), m)
		}},
	}
}

const programs = `
int fact(int n) {
	if (n <= 1) return 1;
	return n * fact(n - 1);
}

int fib(int n) {
	int a = 0;
	int b = 1;
	while (n > 0) {
		int t = a + b;
		a = b;
		b = t;
		n = n - 1;
	}
	return a;
}

int gcd(int a, int b) {
	while (b != 0) {
		int t = a % b;
		a = b;
		b = t;
	}
	return a;
}

int collatz(int n) {
	int steps = 0;
	while (n != 1) {
		if (n % 2 == 0) n = n / 2;
		else n = 3 * n + 1;
		steps = steps + 1;
	}
	return steps;
}

double newton(double x) {
	double g = x;
	int i = 0;
	while (i < 30) {
		g = (g + x / g) / 2.0;
		i = i + 1;
	}
	return g;
}

int primes(int limit) {
	int count = 0;
	int n = 2;
	while (n < limit) {
		int isp = 1;
		int d = 2;
		while (d * d <= n) {
			if (n % d == 0) { isp = 0; break; }
			d = d + 1;
		}
		if (isp) count = count + 1;
		n = n + 1;
	}
	return count;
}

int logic(int a, int b) {
	if (a > 0 && b > 0) return 1;
	if (a > 0 || b > 0) return 2;
	if (!a && !b) return 3;
	return 4;
}

int mixed(int n) {
	double acc = 0.0;
	int i = 1;
	while (i <= n) {
		acc = acc + 1.0 / (double)i;
		i = i + 1;
	}
	return (int)(acc * 1000.0);
}

int ack(int m, int n) {
	if (m == 0) return n + 1;
	if (n == 0) return ack(m - 1, 1);
	return ack(m - 1, ack(m, n - 1));
}

int forsum(int n) {
	int s = 0;
	for (int i = 1; i <= n; i = i + 1) {
		if (i % 3 == 0) continue;
		if (i > 100) break;
		s = s + i;
	}
	return s;
}

int nestedfor(int n) {
	int c = 0;
	for (int i = 0; i < n; i = i + 1)
		for (int j = 0; j < n; j = j + 1)
			if ((i + j) % 2 == 0) c = c + 1;
	return c;
}

int dlogic(double x, double y) {
	if (x && y) return 1;
	if (x || y) return 2;
	if (!x) return 3;
	return 4;
}

double dloop(double x) {
	double s = 0.0;
	while (x) {
		s = s + x;
		x = x - 1.0;
	}
	return s;
}

int manyvars(int n) {
	int a = n + 1;  int b = n + 2;  int c = n + 3;  int d = n + 4;
	int e = n + 5;  int f = n + 6;  int g = n + 7;  int h = n + 8;
	int i = n + 9;  int j = n + 10; int k = n + 11; int l = n + 12;
	int m = n + 13; int o = n + 14; int p = n + 15; int q = n + 16;
	return a + b + c + d + e + f + g + h + i + j + k + l + m + o + p + q;
}
`

func compileAll(t *testing.T, tg target) *Compiler {
	t.Helper()
	prog, err := Parse(programs)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	c := NewCompiler(tg.mk())
	if err := c.Compile(prog); err != nil {
		t.Fatalf("%s: compile: %v", tg.name, err)
	}
	return c
}

func TestProgramsOnAllTargets(t *testing.T) {
	type icase struct {
		fn   string
		args []core.Value
		want int64
	}
	cases := []icase{
		{"fact", []core.Value{core.I(10)}, 3628800},
		{"fib", []core.Value{core.I(20)}, 6765},
		{"gcd", []core.Value{core.I(1071), core.I(462)}, 21},
		{"gcd", []core.Value{core.I(17), core.I(5)}, 1},
		{"collatz", []core.Value{core.I(27)}, 111},
		{"primes", []core.Value{core.I(100)}, 25},
		{"logic", []core.Value{core.I(1), core.I(2)}, 1},
		{"logic", []core.Value{core.I(1), core.I(-2)}, 2},
		{"logic", []core.Value{core.I(0), core.I(0)}, 3},
		{"mixed", []core.Value{core.I(10)}, 2928},
		{"ack", []core.Value{core.I(2), core.I(3)}, 9},
		// forsum(10): 1..10 minus multiples of 3 = 55 - 18 = 37.
		{"forsum", []core.Value{core.I(10)}, 37},
		{"nestedfor", []core.Value{core.I(4)}, 8},
		// manyvars forces named variables onto stack locals (the
		// allocator-exhaustion fallback the paper prescribes).
		{"manyvars", []core.Value{core.I(0)}, 136},
		{"manyvars", []core.Value{core.I(10)}, 296},
	}
	dcases := []struct {
		x, y float64
		want int64
	}{
		{1.5, 2.0, 1}, {1.5, 0, 2}, {0, 2.5, 2}, {0, 0, 3},
	}
	for _, tg := range targets() {
		tg := tg
		t.Run(tg.name, func(t *testing.T) {
			c := compileAll(t, tg)
			for _, tc := range cases {
				got, err := c.Run(tc.fn, tc.args...)
				if err != nil {
					t.Fatalf("%s%v: %v", tc.fn, tc.args, err)
				}
				if got.Int() != tc.want {
					t.Errorf("%s%v = %d, want %d", tc.fn, tc.args, got.Int(), tc.want)
				}
			}
			got, err := c.Run("newton", core.D(2.0))
			if err != nil {
				t.Fatalf("newton: %v", err)
			}
			if math.Abs(got.Float64()-math.Sqrt2) > 1e-12 {
				t.Errorf("newton(2) = %v, want sqrt(2)", got.Float64())
			}
			for _, dc := range dcases {
				got, err := c.Run("dlogic", core.D(dc.x), core.D(dc.y))
				if err != nil {
					t.Fatalf("dlogic: %v", err)
				}
				if got.Int() != dc.want {
					t.Errorf("dlogic(%v,%v) = %d, want %d", dc.x, dc.y, got.Int(), dc.want)
				}
			}
			got, err = c.Run("dloop", core.D(5))
			if err != nil {
				t.Fatalf("dloop: %v", err)
			}
			if got.Float64() != 15 {
				t.Errorf("dloop(5) = %v, want 15", got.Float64())
			}
		})
	}
}

// TestCompiledAgreesWithInterpreter differentially tests the compiler
// against the AST interpreter on the named programs with random inputs.
func TestCompiledAgreesWithInterpreter(t *testing.T) {
	prog, err := Parse(programs)
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp(prog)
	rng := rand.New(rand.NewSource(11))
	for _, tg := range targets() {
		tg := tg
		t.Run(tg.name, func(t *testing.T) {
			c := compileAll(t, tg)
			for trial := 0; trial < 25; trial++ {
				n := int32(rng.Intn(25) + 1)
				m := int32(rng.Intn(25) + 1)
				for _, fn := range []string{"fib", "gcd", "collatz", "primes", "mixed", "forsum", "nestedfor"} {
					var args []core.Value
					var iargs []CVal
					switch fn {
					case "gcd":
						args = []core.Value{core.I(n), core.I(m)}
						iargs = []CVal{IntV(n), IntV(m)}
					default:
						args = []core.Value{core.I(n)}
						iargs = []CVal{IntV(n)}
					}
					got, err := c.Run(fn, args...)
					if err != nil {
						t.Fatalf("%s(%d,%d): %v", fn, n, m, err)
					}
					want, err := in.Call(fn, iargs...)
					if err != nil {
						t.Fatalf("interp %s: %v", fn, err)
					}
					if got.Int() != int64(want.toI()) {
						t.Errorf("%s(%d,%d) = %d, interp says %d", fn, n, m, got.Int(), want.toI())
					}
				}
			}
		})
	}
}

// TestRandomExprPrograms generates random expression functions and checks
// compiled-vs-interpreted equality on every target (the expression
// analog of §3.3's generated regression tests, at the language level).
func TestRandomExprPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var genExpr func(depth int) string
	genExpr = func(depth int) string {
		if depth <= 0 || rng.Intn(4) == 0 {
			switch rng.Intn(3) {
			case 0:
				return fmt.Sprintf("%d", rng.Intn(200)-100)
			case 1:
				return "a"
			default:
				return "b"
			}
		}
		ops := []string{"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
		op := ops[rng.Intn(len(ops))]
		l, r := genExpr(depth-1), genExpr(depth-1)
		if op == "/" || op == "%" {
			// Keep divisors nonzero-ish; zero is defined (helpers
			// return 0) but exercise it rarely.
			return fmt.Sprintf("(%s %s (%s + 101))", l, op, r)
		}
		return fmt.Sprintf("(%s %s %s)", l, op, r)
	}

	for trial := 0; trial < 20; trial++ {
		src := fmt.Sprintf("int f(int a, int b) { return %s; }", genExpr(4))
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		in := NewInterp(prog)
		for _, tg := range targets() {
			c := NewCompiler(tg.mk())
			if err := c.Compile(prog); err != nil {
				t.Fatalf("%s: compile %q: %v", tg.name, src, err)
			}
			for k := 0; k < 4; k++ {
				a := int32(rng.Intn(100) - 50)
				b := int32(rng.Intn(100) - 50)
				got, err := c.Run("f", core.I(a), core.I(b))
				if err != nil {
					t.Fatalf("%s: run %q: %v", tg.name, src, err)
				}
				want, err := in.Call("f", IntV(a), IntV(b))
				if err != nil {
					t.Fatalf("interp %q: %v", src, err)
				}
				if got.Int() != int64(want.toI()) {
					t.Errorf("%s: f(%d,%d) over %q = %d, interp %d",
						tg.name, a, b, src, got.Int(), want.toI())
				}
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"int f( { return 1; }",
		"int f() { return ; }",
		"int f() { x = 1; return 0; }",
		"int f() { int x x; return 0; }",
		"int f() { break; }",
		"float f() { return 1; }",
	} {
		prog, err := Parse(src)
		if err != nil {
			continue // parse-time rejection is fine
		}
		for _, tg := range targets()[:1] {
			c := NewCompiler(tg.mk())
			if err := c.Compile(prog); err == nil {
				t.Errorf("%q compiled without error", src)
			}
		}
	}
}

// TestUninstalledProgramNotReinstalled is the regression test for stale
// dispatch through a re-installed entry: a program's functions call each
// other through a table of stored addresses, so once the whole program is
// uninstalled and another program reuses its code regions, a call of the
// old entry must fail rather than re-install main alone and jump through
// the old table into the new program's code.
func TestUninstalledProgramNotReinstalled(t *testing.T) {
	m := targets()[0].mk()
	compile := func(src string) map[string]*core.Func {
		t.Helper()
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCompiler(m)
		if err := c.Compile(prog); err != nil {
			t.Fatal(err)
		}
		return c.Funcs()
	}
	first := compile(`int h(int x) { return x + 1; } int main(int a) { return h(a) * 10; }`)
	if v, err := m.Call(first["main"], core.I(5)); err != nil || v.Int() != 60 {
		t.Fatalf("main(5) = %v, %v; want 60", v, err)
	}
	for _, f := range first {
		if err := m.Uninstall(f); err != nil {
			t.Fatal(err)
		}
	}
	second := compile(`int g(int x) { return x * 101; } int main(int a) { return g(a) * 1000; }`)
	if v, err := m.Call(second["main"], core.I(5)); err != nil || v.Int() != 505000 {
		t.Fatalf("second main(5) = %v, %v; want 505000", v, err)
	}
	v, err := m.Call(first["main"], core.I(5))
	if err == nil {
		t.Fatalf("uninstalled main(5) = %d, want an error (any value ran through the stale table)", v.Int())
	}
	if !errors.Is(err, core.ErrUninstalled) {
		t.Fatalf("uninstalled main(5): err = %v, want ErrUninstalled", err)
	}
}
