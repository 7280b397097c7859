package assembler

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rnascale/internal/seq"
	"rnascale/internal/simdata"
)

// fakeAssembler is a registry test double.
type fakeAssembler struct{ name string }

func (f *fakeAssembler) Info() Info { return Info{Name: f.name, GraphType: "DBG"} }
func (f *fakeAssembler) Assemble(req Request) (Result, error) {
	return Result{}, nil
}
func (f *fakeAssembler) Estimate(req Request) (Result, error) {
	return Result{}, nil
}

func TestRegistry(t *testing.T) {
	Register(&fakeAssembler{name: "zz-test"})
	a, err := Get("zz-test")
	if err != nil || a.Info().Name != "zz-test" {
		t.Fatalf("Get: %v %v", a, err)
	}
	if _, err := Get("nonexistent"); err == nil || !strings.Contains(err.Error(), "zz-test") {
		t.Errorf("missing-tool error should list known tools: %v", err)
	}
	found := false
	for _, a := range List() {
		if a.Info().Name == "zz-test" {
			found = true
		}
	}
	if !found {
		t.Error("List misses registered assembler")
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(&fakeAssembler{name: "zz-test"})
}

func TestParamsWithDefaults(t *testing.T) {
	p := Params{K: 31}.WithDefaults(3)
	if p.MinCoverage != 3 || p.MinContigLen != 62 {
		t.Errorf("defaults %+v", p)
	}
	p = Params{K: 31, MinCoverage: 1, MinContigLen: 100}.WithDefaults(3)
	if p.MinCoverage != 1 || p.MinContigLen != 100 {
		t.Errorf("overrides clobbered: %+v", p)
	}
}

func TestRequestValidate(t *testing.T) {
	info := Info{Name: "t", Distributed: "MPI"}
	good := Request{
		Reads:  []seq.Read{{ID: "r", Seq: []byte("ACGT")}},
		Params: Params{K: 21}, Nodes: 2, CoresPerNode: 8,
	}
	if err := good.Validate(info); err != nil {
		t.Errorf("good request rejected: %v", err)
	}
	cases := map[string]func(r *Request){
		"no-reads": func(r *Request) { r.Reads = nil },
		"k-low":    func(r *Request) { r.Params.K = 5 },
		"k-high":   func(r *Request) { r.Params.K = 99 },
		"no-nodes": func(r *Request) { r.Nodes = 0 },
		"no-cores": func(r *Request) { r.CoresPerNode = 0 },
	}
	for name, mut := range cases {
		r := good
		mut(&r)
		if err := r.Validate(info); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Single-node tool cannot span nodes.
	single := Info{Name: "velvet"}
	r := good
	if err := r.Validate(single); err == nil {
		t.Error("single-node tool accepted 2 nodes")
	}
	r.Nodes = 1
	if err := r.Validate(single); err != nil {
		t.Errorf("single node rejected: %v", err)
	}
}

func TestMultiNode(t *testing.T) {
	if !(Info{Distributed: "MPI"}).MultiNode() {
		t.Error("MPI not multi-node")
	}
	if (Info{}).MultiNode() {
		t.Error("empty distributed is multi-node")
	}
}

// The Table IV ordering: P. Crispa's graph must not fit a single
// 16 GB c3.2xlarge but must fit one 61 GB r3.2xlarge; B. Glumae must
// fit both. Distribution over nodes shrinks the per-node footprint.
func TestGraphMemoryTableIVOrdering(t *testing.T) {
	bg := simdata.BGlumae().FullScale
	pc := simdata.PCrispa().FullScale
	if m := GraphMemoryGB(bg, 2); m > 16 {
		t.Errorf("B. Glumae 2-node footprint %.1f GB must fit c3.2xlarge", m)
	}
	if m := GraphMemoryGB(pc, 2); m <= 16 {
		t.Errorf("P. Crispa 2-node footprint %.1f GB must exceed c3.2xlarge", m)
	}
	if m := GraphMemoryGB(pc, 2); m > 61 {
		t.Errorf("P. Crispa 2-node footprint %.1f GB must fit r3.2xlarge", m)
	}
	// More nodes, less per-node memory — the "any size of data sets
	// can be processed" claim.
	if GraphMemoryGB(pc, 8) >= GraphMemoryGB(pc, 2) {
		t.Error("footprint not decreasing in nodes")
	}
	if GraphMemoryGB(pc, 0) != GraphMemoryGB(pc, 1) {
		t.Error("node floor broken")
	}
}

func TestFullScaleBases(t *testing.T) {
	fs := simdata.BGlumae().FullScale
	b := FullScaleBases(fs)
	// 3.8 GB FASTQ → roughly 1.7 Gbases.
	if b < 1.2e9 || b > 2.2e9 {
		t.Errorf("bases %.2g", b)
	}
}

// A memo computes once per key, and a nil memo every time.
func TestMemoComputesOncePerKey(t *testing.T) {
	calls := 0
	compute := func() any { calls++; return calls }
	m := &Memo{}
	for range 3 {
		if got := m.Do("a", compute); got != 1 {
			t.Fatalf("key a gave %v, want the first computation's 1", got)
		}
	}
	if got := m.Do("b", compute); got != 2 || calls != 2 {
		t.Fatalf("key b gave %v after %d computations, want 2 after 2", got, calls)
	}
	var none *Memo
	none.Do("a", compute)
	none.Do("a", compute)
	if calls != 4 {
		t.Fatalf("nil memo computed %d times in two calls", calls-2)
	}
}

// A computation that panics, or exits its goroutine, fails every caller
// of its key — the one computing, those waiting and those arriving
// later — and none of them gets a value.
func TestMemoFailureReachesEveryCaller(t *testing.T) {
	for name, fail := range map[string]func(){"panic": func() { panic("boom") }, "goexit": runtime.Goexit} {
		m := &Memo{}
		started, release := make(chan struct{}), make(chan struct{})
		var wg sync.WaitGroup
		results := make([]any, 5)
		call := func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					results[i] = fmt.Sprint("panic: ", p)
				}
			}()
			results[i] = m.Do("k", func() any {
				close(started)
				<-release
				fail()
				return "value"
			})
		}
		wg.Add(1)
		go call(0)
		<-started
		for i := 1; i < 4; i++ {
			wg.Add(1)
			go call(i)
		}
		close(release)
		wg.Wait()
		wg.Add(1)
		call(4)
		for i, r := range results {
			if i == 0 && name == "goexit" {
				continue // the computing goroutine exited before recording anything
			}
			if s, _ := r.(string); !strings.HasPrefix(s, "panic: ") {
				t.Errorf("%s: caller %d got %v, want a panic", name, i, r)
			}
		}
	}
}
