package diffexpr

import (
	"math"
	"testing"
)

func TestObviousDifferenceDetected(t *testing.T) {
	ids := []string{"up", "flat1", "flat2", "down"}
	a := []int64{1000, 500, 300, 10}
	b := []int64{10, 500, 300, 1000}
	rows, err := Test(ids, a, b)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]Row{}
	for _, r := range rows {
		byID[r.ID] = r
	}
	if !byID["up"].Significant || !byID["down"].Significant {
		t.Errorf("strong changes not significant: %+v %+v", byID["up"], byID["down"])
	}
	if byID["flat1"].Significant || byID["flat2"].Significant {
		t.Errorf("flat transcripts significant")
	}
	if byID["up"].Log2FC <= 0 || byID["down"].Log2FC >= 0 {
		t.Errorf("fold-change signs wrong: %v %v", byID["up"].Log2FC, byID["down"].Log2FC)
	}
	// Sorted with significant rows first (lowest q).
	if rows[0].ID != "up" && rows[0].ID != "down" {
		t.Errorf("strongest change not first: %v", rows[0])
	}
}

func TestLibrarySizeNormalization(t *testing.T) {
	// Condition B sequenced 10× deeper; proportionally identical
	// transcripts must not be called differential.
	ids := []string{"t1", "t2"}
	a := []int64{100, 200}
	b := []int64{1000, 2000}
	rows, err := Test(ids, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Significant {
			t.Errorf("depth-only difference called significant: %+v", r)
		}
		if math.Abs(r.Log2FC) > 0.2 {
			t.Errorf("normalized fold change %v too large", r.Log2FC)
		}
	}
}

func TestPValuesAndQValuesInRange(t *testing.T) {
	ids := []string{"a", "b", "c"}
	rows, err := Test(ids, []int64{5, 100, 40}, []int64{7, 90, 45})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PValue < 0 || r.PValue > 1 || r.QValue < 0 || r.QValue > 1 {
			t.Errorf("out-of-range p/q: %+v", r)
		}
		if r.QValue < r.PValue {
			t.Errorf("q below p: %+v", r)
		}
	}
}

func TestBHMonotonicity(t *testing.T) {
	// Many nulls plus one strong signal: only the signal survives BH.
	n := 50
	ids := make([]string, n)
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range ids {
		ids[i] = string(rune('a' + i%26))
		a[i], b[i] = 100, 100
	}
	ids[0] = "signal"
	a[0], b[0] = 2000, 50
	rows, err := Test(ids, a, b)
	if err != nil {
		t.Fatal(err)
	}
	sig := 0
	for _, r := range rows {
		if r.Significant {
			sig++
			if r.ID != "signal" {
				t.Errorf("false positive %s", r.ID)
			}
		}
	}
	if sig != 1 {
		t.Errorf("%d significant rows, want 1", sig)
	}
}

func TestValidation(t *testing.T) {
	if _, err := Test(nil, nil, nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := Test([]string{"x"}, []int64{1}, []int64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Test([]string{"x"}, []int64{-1}, []int64{1}); err == nil {
		t.Error("negative counts accepted")
	}
	if _, err := Test([]string{"x"}, []int64{0}, []int64{1}); err == nil {
		t.Error("zero-total condition accepted")
	}
}

func TestNormalTail(t *testing.T) {
	if p := normalTail(0); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("tail(0) = %v", p)
	}
	if p := normalTail(1.96); math.Abs(p-0.025) > 0.001 {
		t.Errorf("tail(1.96) = %v", p)
	}
	if normalTail(10) > 1e-20 {
		t.Error("far tail not tiny")
	}
}
