package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSink counts syncs and models fsync latency with a sleep, so
// amortization shows up in both the sync count and the elapsed time
// without touching a real disk.
type countingSink struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	syncs atomic.Int64
	delay time.Duration
}

func (c *countingSink) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *countingSink) sync() error {
	c.syncs.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return nil
}

// appendStorm runs goroutines×perG concurrent appends and returns the
// sync count and elapsed time.
func appendStorm(t *testing.T, batch, goroutines, perG int) (int64, time.Duration, *countingSink) {
	t.Helper()
	sink := &countingSink{delay: time.Millisecond}
	w := NewSyncedWriter(sink, sink.sync, Options{BatchSize: batch})
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := w.Append(Record{Kind: KindUnit, Unit: fmt.Sprintf("g%d-%d", g, i)}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return sink.syncs.Load(), elapsed, sink
}

// TestGroupCommitAmortizesSyncs is the throughput acceptance: at
// batch size 64 under concurrent appenders, appends-per-fsync (and
// with fsync latency modelled, throughput) beat the per-append-fsync
// baseline by ≥4×.
func TestGroupCommitAmortizesSyncs(t *testing.T) {
	// Concurrency on the order of the batch size, so a full batch can
	// actually form while the baseline's fsyncs serialize.
	const goroutines, perG = 64, 4
	const total = goroutines * perG

	baseSyncs, baseElapsed, baseSink := appendStorm(t, 1, goroutines, perG)
	batchSyncs, batchElapsed, batchSink := appendStorm(t, 64, goroutines, perG)

	if baseSyncs != total {
		t.Fatalf("batch-1 baseline issued %d syncs for %d appends", baseSyncs, total)
	}
	if batchSyncs*4 > baseSyncs {
		t.Errorf("batch-64 issued %d syncs vs baseline %d: amortization under 4×", batchSyncs, baseSyncs)
	}
	ratio := float64(baseElapsed) / float64(batchElapsed)
	t.Logf("syncs %d→%d, elapsed %v→%v (%.1f× throughput)", baseSyncs, batchSyncs, baseElapsed, batchElapsed, ratio)
	if ratio < 4 {
		t.Errorf("throughput ratio %.1f×, want ≥4×", ratio)
	}

	// Same record count durable either way.
	if n := bytes.Count(baseSink.buf.Bytes(), []byte("\n")); n != total {
		t.Errorf("batch-1 sink holds %d records, want %d", n, total)
	}
	if n := bytes.Count(batchSink.buf.Bytes(), []byte("\n")); n != total {
		t.Errorf("batch-64 sink holds %d records, want %d", n, total)
	}
}

// TestBatchSizeDoesNotChangeBytes: for a serial appender the journal
// bytes are identical at any batch size — batching changes when
// fsyncs happen, never what is written.
func TestBatchSizeDoesNotChangeBytes(t *testing.T) {
	write := func(batch int) []byte {
		path := filepath.Join(t.TempDir(), "run.journal")
		w, err := CreateOptions(path, Options{BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		for i, kind := range []string{KindHeader, KindStageStart, KindUnit, KindComplete} {
			if _, err := w.Append(Record{Kind: kind, VTime: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b8, b64 := write(1), write(8), write(64)
	if !bytes.Equal(b1, b8) || !bytes.Equal(b1, b64) {
		t.Fatal("journal bytes vary with batch size")
	}
}

// failingSink errors from the Nth write on.
type failingSink struct {
	writes int
	failAt int
}

func (f *failingSink) Write(p []byte) (int, error) {
	f.writes++
	if f.writes >= f.failAt {
		return 0, errors.New("disk on fire")
	}
	return len(p), nil
}

// TestWriterFailStop pins the poison contract: after the first append
// error the writer is dead, and later appends surface the original
// error instead of writing after possibly-partial bytes.
func TestWriterFailStop(t *testing.T) {
	for _, batched := range []bool{false, true} {
		name := "sync"
		if batched {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) {
			sink := &failingSink{failAt: 2}
			var w *Writer
			if batched {
				w = NewSyncedWriter(sink, func() error { return nil }, Options{BatchSize: 1})
			} else {
				w = NewWriter(sink)
			}
			defer w.Close()
			if _, err := w.Append(Record{Kind: KindHeader}); err != nil {
				t.Fatalf("first append: %v", err)
			}
			_, err := w.Append(Record{Kind: KindUnit})
			if err == nil || !strings.Contains(err.Error(), "disk on fire") {
				t.Fatalf("second append: %v, want the sink error", err)
			}
			first := err
			for i := 0; i < 3; i++ {
				_, err := w.Append(Record{Kind: KindUnit})
				if err == nil || !strings.Contains(err.Error(), "disk on fire") {
					t.Fatalf("append after poison: %v, want the original error", err)
				}
				if !strings.Contains(first.Error(), "disk on fire") {
					t.Fatalf("poisoned error drifted: %v vs %v", err, first)
				}
			}
			if w.Err() == nil {
				t.Fatal("Err() nil on a poisoned writer")
			}
			if sink.writes != 2 {
				t.Fatalf("sink saw %d writes after poison, want 2", sink.writes)
			}
		})
	}
}

// TestWriterFailStopOnSyncError: an fsync failure poisons just like a
// write failure — the bytes may or may not be durable, so the writer
// must not continue.
func TestWriterFailStopOnSyncError(t *testing.T) {
	var sunk int
	w := NewSyncedWriter(io.Discard, func() error {
		sunk++
		if sunk >= 2 {
			return errors.New("EIO")
		}
		return nil
	}, Options{BatchSize: 1})
	defer w.Close()
	if _, err := w.Append(Record{Kind: KindHeader}); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if _, err := w.Append(Record{Kind: KindUnit}); err == nil || !strings.Contains(err.Error(), "EIO") {
		t.Fatalf("append across failing sync: %v, want EIO", err)
	}
	if _, err := w.Append(Record{Kind: KindUnit}); err == nil || !strings.Contains(err.Error(), "EIO") {
		t.Fatalf("append after poison: %v, want the original EIO", err)
	}
}

// TestAppendAfterClose returns ErrClosed.
func TestAppendAfterClose(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := w.Append(Record{Kind: KindHeader}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

// TestLargePayloadRoundTrip: payloads beyond bufio.Scanner's default
// 64 KiB token cap — which used to fail the read with an opaque
// "token too long" — round-trip through the reader's line scan, and
// the writer lets go of a record that size instead of pinning it in
// its reusable line buffer (the gateway holds a writer per finished
// run).
func TestLargePayloadRoundTrip(t *testing.T) {
	big := make([]byte, 0, 1<<20+64)
	big = append(big, `{"blob":"`...)
	for len(big) < 1<<20 {
		big = append(big, "0123456789abcdef"...)
	}
	big = append(big, `"}`...)

	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := w.Append(Record{Kind: KindHeader}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(Record{Kind: KindUnit, Digest: Digest(big), Payload: big}); err != nil {
		t.Fatal(err)
	}
	if w.line.Cap() > maxKeptLine || w.rec.Payload != nil {
		t.Errorf("writer still holds the 1 MiB record: line buffer %d bytes, payload %d", w.line.Cap(), len(w.rec.Payload))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lg, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read 1 MiB payload: %v", err)
	}
	if !bytes.Equal(lg.Records[1].Payload, big) {
		t.Fatal("large payload did not round-trip")
	}
}

// TestMaxWaitFillsBatches: with a positive MaxWait the flusher
// lingers for stragglers; the test only pins that appends still
// complete and syncs stay below one-per-append.
func TestMaxWaitFillsBatches(t *testing.T) {
	sink := &countingSink{}
	w := NewSyncedWriter(sink, sink.sync, Options{BatchSize: 16, MaxWait: 2 * time.Millisecond})
	var wg sync.WaitGroup
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := w.Append(Record{Kind: KindUnit, Unit: fmt.Sprintf("u%d", i)}); err != nil {
				t.Errorf("append: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(sink.buf.Bytes(), []byte("\n")); got != n {
		t.Fatalf("sink holds %d records, want %d", got, n)
	}
	if s := sink.syncs.Load(); s >= n {
		t.Errorf("%d syncs for %d appends: MaxWait window never batched", s, n)
	}
}
