package relational

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"raven/internal/fault"
	"raven/internal/testfix"
)

// Out-of-core differential tests: with a tiny memory budget every
// pipeline breaker (join build, grouped-aggregation merge, sort) must
// spill — and the results, including row order, must stay byte-identical
// to the unbudgeted in-memory execution at every DOP. Spill files must
// never survive the query, on success, error, cancel or panic paths.

// spillBudget is small enough that every shape below spills.
const spillBudget = 2048

// oneQueryBudget returns a budget of n resident bytes sized for one
// query: a fresh GlobalBudget's query handle, whose floor is n.
func oneQueryBudget(n int64, dir string) *MemBudget {
	return NewGlobalBudget(n, dir).QueryBudgetFor(1)
}

// assertBudgetReturned asserts that, after Cleanup, the query's global
// accountant holds no reserved bytes and no active query.
func assertBudgetReturned(t *testing.T, mb *MemBudget) {
	t.Helper()
	if r, q := mb.global.Reserved(), mb.global.ActiveQueries(); r != 0 || q != 0 {
		t.Errorf("after Cleanup: Reserved() = %d, ActiveQueries() = %d, want 0 and 0", r, q)
	}
}

// assertNoSpillFiles asserts the spill dir holds no files.
func assertNoSpillFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("leaked spill file %s", filepath.Join(dir, e.Name()))
	}
}

// spillShapes are the breaker plans under test; each constructor builds a
// fresh serial plan over the shared fixture.
func spillShapes(t *testing.T) map[string]func() Operator {
	t.Helper()
	// The dimension side must itself exceed the budget so the join build
	// spills its rows (typed indexes stay resident by design).
	pf, dim := breakerJoinFixture(t, 6000, 500)
	return map[string]func() Operator{
		"join": func() Operator {
			return &HashJoin{
				Left:    NewScan(pf, "", nil, 128),
				Right:   NewScan(dim, "", nil, 128),
				LeftKey: "k", RightKey: "dk",
			}
		},
		"group": func() Operator {
			return groupAgg(NewScan(pf, "", nil, 128), []string{"grp", "k"}, []AggSpec{
				{Fn: AggCount, As: "n"},
				{Fn: AggSum, Col: "v", As: "sv"},
				{Fn: AggAvg, Col: "v", As: "av"},
				{Fn: AggMin, Col: "v", As: "mn"},
				{Fn: AggMax, Col: "v", As: "mx"},
			}, 0)
		},
		"sort": func() Operator {
			return &Sort{
				Child: NewScan(pf, "", nil, 128),
				Keys:  []SortKey{{Col: "v", Desc: true}, {Col: "grp"}},
				Limit: -1,
			}
		},
		"sort-limit-offset": func() Operator {
			return &Sort{
				Child:  NewScan(pf, "", nil, 128),
				Keys:   []SortKey{{Col: "grp"}, {Col: "v"}},
				Limit:  50,
				Offset: 17,
			}
		},
	}
}

// TestSpillDifferential runs every shape with a tiny budget at DOP 1, 2,
// 4 and NumCPU and compares byte-for-byte (including row order) against
// the in-memory serial execution.
func TestSpillDifferential(t *testing.T) {
	shapes := spillShapes(t)
	dops := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		dops = append(dops, n)
	}
	for name, mk := range shapes {
		t.Run(name, func(t *testing.T) {
			want, err := Drain(mk())
			if err != nil {
				t.Fatal(err)
			}
			assertAggMatchesReference(t, name, mk(), want)
			// Serial with budget.
			t.Run("serial", func(t *testing.T) {
				dir := t.TempDir()
				mb := oneQueryBudget(spillBudget, dir)
				root := mk()
				SetBudget(mb, root)
				got, err := Drain(root)
				if err != nil {
					t.Fatal(err)
				}
				if mb.Spills() == 0 || mb.SpilledBytes() == 0 {
					t.Fatalf("budget %d did not spill (spills=%d bytes=%d)",
						spillBudget, mb.Spills(), mb.SpilledBytes())
				}
				assertTablesEqual(t, want, got)
				mb.Cleanup()
				assertNoSpillFiles(t, dir)
				assertBudgetReturned(t, mb)
			})
			for _, dop := range dops {
				t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
					dir := t.TempDir()
					mb := oneQueryBudget(spillBudget, dir)
					root := mustParallelize(t, mk(), dop, 128)
					SetBudget(mb, root)
					got, err := Drain(root)
					if err != nil {
						t.Fatal(err)
					}
					if mb.Spills() == 0 {
						t.Fatalf("dop=%d did not spill", dop)
					}
					assertTablesEqual(t, want, got)
					mb.Cleanup()
					assertNoSpillFiles(t, dir)
					assertBudgetReturned(t, mb)
				})
			}
		})
	}
}

// TestSpillStatsReported asserts the spill volume reaches both the
// operator stats (SpillBytes) and the adaptive observations, and that
// spill observations carry a zero estimate (they are accounting, not
// cardinality evidence).
func TestSpillStatsReported(t *testing.T) {
	for name, mk := range spillShapes(t) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mb := oneQueryBudget(spillBudget, dir)
			obs := &captureAdaptive{}
			root := mk()
			SetBudget(mb, root)
			setObserve(root, obs)
			if _, err := Drain(root); err != nil {
				t.Fatal(err)
			}
			var spillBytes int64
			for _, s := range CollectStats(root) {
				spillBytes += s.SpillBytes
			}
			if spillBytes <= 0 {
				t.Errorf("no SpillBytes in operator stats")
			}
			var spillObs bool
			for _, o := range obs.obs {
				if o.point == "join_spill_bytes" || o.point == "group_spill_bytes" || o.point == "sort_spill_bytes" {
					spillObs = true
					if o.estimated != 0 {
						t.Errorf("%s estimated = %v, want 0", o.point, o.estimated)
					}
					if o.observed <= 0 {
						t.Errorf("%s observed = %v, want > 0", o.point, o.observed)
					}
				}
			}
			if !spillObs {
				t.Errorf("no spill observation recorded; have %+v", obs.obs)
			}
			mb.Cleanup()
			assertNoSpillFiles(t, dir)
			assertBudgetReturned(t, mb)
		})
	}
}

// captureAdaptive records observations (test-local AdaptiveContext).
type captureAdaptive struct {
	obs []struct {
		point               string
		estimated, observed float64
	}
}

func (c *captureAdaptive) ObserveCardinality(point string, estimated, observed float64) {
	c.obs = append(c.obs, struct {
		point               string
		estimated, observed float64
	}{point, estimated, observed})
}

func (c *captureAdaptive) Reoptimize(est float64) (float64, bool) { return est, false }

func (c *captureAdaptive) RecordSwitch(point, from, to string) {}

// setObserve stamps the capture context onto the breakers under test.
func setObserve(root Operator, obs AdaptiveContext) {
	switch op := root.(type) {
	case *HashJoin:
		op.Observe = obs
	case *PartialGroupAggregate:
		op.Observe = obs
	case *MergeGroupAggregate:
		op.Observe = obs
	case *Sort:
		op.Observe = obs
	}
	for _, c := range root.Children() {
		setObserve(c, obs)
	}
}

// TestSpillFaultPaths injects failures, cancellation and panics at the
// spill-write and spill-read sites and asserts the query surfaces the
// fault while budget cleanup leaves no temp files, returns every global
// reservation (and, for parallel plans, leaves no goroutines).
func TestSpillFaultPaths(t *testing.T) {
	shapes := spillShapes(t)
	boom := errors.New("injected spill fault")
	for name, mk := range shapes {
		for _, site := range []string{fault.SiteSpillWrite, fault.SiteSpillRead} {
			t.Run(name+"/fail@"+site, func(t *testing.T) {
				testfix.LeakCheck(t)
				f := testfix.InjectFaults(t)
				f.FailAt(site, 1, boom)
				dir := t.TempDir()
				mb := oneQueryBudget(spillBudget, dir)
				root := mustParallelize(t, mk(), 2, 128)
				SetBudget(mb, root)
				_, err := Drain(root)
				if f.Hits(site) == 0 {
					t.Skipf("site %s not crossed by shape %s", site, name)
				}
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want injected fault", err)
				}
				mb.Cleanup()
				assertNoSpillFiles(t, dir)
				assertBudgetReturned(t, mb)
			})
		}
		t.Run(name+"/cancel@spill.write", func(t *testing.T) {
			testfix.LeakCheck(t)
			f := testfix.InjectFaults(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			f.CallAt(fault.SiteSpillWrite, 2, cancel)
			dir := t.TempDir()
			mb := oneQueryBudget(spillBudget, dir)
			root := mustParallelize(t, mk(), 2, 128)
			SetContext(ctx, root)
			SetBudget(mb, root)
			_, err := DrainContext(ctx, root)
			if f.Hits(fault.SiteSpillWrite) < 2 {
				t.Skipf("spill.write not crossed twice by shape %s", name)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			mb.Cleanup()
			assertNoSpillFiles(t, dir)
			assertBudgetReturned(t, mb)
		})
		t.Run(name+"/panic@spill.write", func(t *testing.T) {
			testfix.LeakCheck(t)
			f := testfix.InjectFaults(t)
			f.PanicAt(fault.SiteSpillWrite, 1, "injected spill panic")
			dir := t.TempDir()
			mb := oneQueryBudget(spillBudget, dir)
			root := mk()
			SetBudget(mb, root)
			err := func() (err error) {
				defer RecoverPanic("spill test", &err)
				_, err = Drain(root)
				return err
			}()
			if f.Hits(fault.SiteSpillWrite) == 0 {
				t.Skipf("spill.write not crossed by shape %s", name)
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want PanicError", err)
			}
			mb.Cleanup()
			assertNoSpillFiles(t, dir)
			assertBudgetReturned(t, mb)
		})
	}
}

// TestSpillBudgetDisabled asserts a nil or non-positive budget keeps the
// in-memory paths (no spill file is ever created).
func TestSpillBudgetDisabled(t *testing.T) {
	var nilBudget *MemBudget
	if nilBudget.Enabled() {
		t.Fatal("nil budget enabled")
	}
	if oneQueryBudget(0, "").Enabled() {
		t.Fatal("zero budget enabled")
	}
	dir := t.TempDir()
	mb := oneQueryBudget(0, dir)
	for _, mk := range spillShapes(t) {
		root := mk()
		SetBudget(mb, root)
		if _, err := Drain(root); err != nil {
			t.Fatal(err)
		}
	}
	if mb.Spills() != 0 {
		t.Fatalf("disabled budget spilled %d times", mb.Spills())
	}
	assertNoSpillFiles(t, dir)
}
