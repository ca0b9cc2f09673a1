package stats

import (
	"testing"
	"testing/quick"
)

// System.Aggregate sums every CPU's hit ratios with Ratio.Add and
// LevelStats.Add, and its figures must not depend on the order it visits
// the CPUs. That holds when the additions form a commutative monoid:
// commutative and associative, with the zero value as identity. These
// property tests check it with testing/quick over random operand values.

// quickCfg sizes the random exploration.
var quickCfg = &quick.Config{MaxCount: 200}

// --- Ratio ---

func TestQuickRatioAddCommutative(t *testing.T) {
	f := func(a, b Ratio) bool {
		x, y := a, b
		x.Add(b)
		y.Add(a)
		return x == y
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRatioAddAssociative(t *testing.T) {
	f := func(a, b, c Ratio) bool {
		// (a+b)+c
		l := a
		l.Add(b)
		l.Add(c)
		// a+(b+c)
		rr := b
		rr.Add(c)
		r := a
		r.Add(rr)
		return l == r
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRatioAddIdentity(t *testing.T) {
	f := func(a Ratio) bool {
		x := a
		x.Add(Ratio{})
		z := Ratio{}
		z.Add(a)
		return x == a && z == a
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

// --- LevelStats ---

func TestQuickLevelStatsAddCommutative(t *testing.T) {
	f := func(a, b LevelStats) bool {
		x, y := a, b
		x.Add(&b)
		y.Add(&a)
		return x == y
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickLevelStatsAddAssociative(t *testing.T) {
	f := func(a, b, c LevelStats) bool {
		l := a
		l.Add(&b)
		l.Add(&c)
		bc := b
		bc.Add(&c)
		r := a
		r.Add(&bc)
		return l == r
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickLevelStatsAddIdentity(t *testing.T) {
	f := func(a LevelStats) bool {
		x := a
		x.Add(&LevelStats{})
		z := LevelStats{}
		z.Add(&a)
		return x == a && z == a
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
