package main

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/tinyc"
)

func TestTinyCGeneratorDeterministic(t *testing.T) {
	for _, shape := range []tinycShape{hotShape, compileShape} {
		for i := 0; i < 50; i++ {
			a, err := genTinyC(7, i, shape)
			if err != nil {
				t.Fatal(err)
			}
			b, err := genTinyC(7, i, shape)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("program %d differs between two generations of seed 7", i)
			}
			if a.Stmts < shape.MinStmts || a.Funcs < 1 || a.Funcs > 3 {
				t.Errorf("program %d: %d statements, %d functions outside the shape %+v", i, a.Stmts, a.Funcs, shape)
			}
			c, err := genTinyC(8, i, shape)
			if err != nil {
				t.Fatal(err)
			}
			if c.Source == a.Source {
				t.Errorf("program %d is the same under seeds 7 and 8", i)
			}
		}
	}
}

func TestParallelGenerationMatchesSerial(t *testing.T) {
	par, err := genPrograms(3, 40, compileShape)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range par {
		s, err := genTinyC(3, i, compileShape)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, s) {
			t.Fatalf("parallel program %d differs from serial", i)
		}
	}
}

// TestSaltKeepsMeaning: a re-salted program is a different text with the
// same reference results.
func TestSaltKeepsMeaning(t *testing.T) {
	p, err := genTinyC(4, 9, compileShape)
	if err != nil {
		t.Fatal(err)
	}
	src := p.withSalt(compileSalt0 + 12345)
	if src == p.Source {
		t.Fatal("re-salting left the text unchanged")
	}
	prog, err := tinyc.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range p.Args {
		v, err := tinyc.NewInterp(prog).Call("main", tinyc.IntV(a))
		if err != nil || v.I != p.Want[k] {
			t.Errorf("main(%d) = %v, %v after re-salting; want %d", a, v.I, err, p.Want[k])
		}
	}
}

func TestBytecodeGeneratorDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		a, err := genBytecode(11, i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genBytecode(11, i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("bytecode %d differs between two generations of seed 11", i)
		}
		for _, args := range a.Args {
			if args[0] != a.Args[0][0] {
				t.Errorf("bytecode %d: bias argument varies across variants", i)
			}
		}
	}
}

func TestArrivalsDeterministic(t *testing.T) {
	a := arrivals(5, 0, 2000, time.Second)
	b := arrivals(5, 0, 2000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and window gave different arrivals")
	}
	if reflect.DeepEqual(a, arrivals(5, 1, 2000, time.Second)) {
		t.Error("two windows share one arrival schedule")
	}
	// A Poisson process at 2000/s over one second: about 2000 arrivals.
	if n := len(a); n < 1800 || n > 2200 {
		t.Errorf("%d arrivals at 2000/s over 1s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d at %v out of order or past the window", i, a[i])
		}
	}
}
