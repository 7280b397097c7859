package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
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

// bigPayload is a 1 MiB JSON payload.
func bigPayload() []byte {
	big := make([]byte, 0, 1<<20+64)
	big = append(big, `{"blob":"`...)
	for len(big) < 1<<20 {
		big = append(big, "0123456789abcdef"...)
	}
	return append(big, `"}`...)
}

// TestLargePayloadRoundTrip: payloads beyond bufio.Scanner's default
// 64 KiB token cap — which used to fail the read with an opaque
// "token too long" — round-trip through the reader's scan, written
// both through and group-committed, and neither writer keeps a buffer
// the size of the record once it is down.
func TestLargePayloadRoundTrip(t *testing.T) {
	big := bigPayload()
	for _, synced := range []bool{false, true} {
		name := "unsynced"
		if synced {
			name = "synced"
		}
		t.Run(name, func(t *testing.T) {
			sink := &countingSink{}
			w := NewWriter(&sink.buf)
			if synced {
				w = NewSyncedWriter(sink, sink.sync, Options{})
			}
			if _, err := w.Append(Record{Kind: KindHeader}); err != nil {
				t.Fatal(err)
			}
			if _, err := w.Append(Record{Kind: KindUnit, Payload: big}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if w.line.Cap() > flushBufSize || cap(w.buf) > flushBufSize || w.rec.Payload != nil {
				t.Errorf("writer holds the 1 MiB record: line buffer %d bytes, flush buffer %d, payload %d",
					w.line.Cap(), cap(w.buf), len(w.rec.Payload))
			}
			lg, err := Read(bytes.NewReader(sink.buf.Bytes()))
			if err != nil {
				t.Fatalf("read 1 MiB payload: %v", err)
			}
			if !bytes.Equal(lg.Records[1].Payload, big) {
				t.Fatal("large payload did not round-trip")
			}
		})
	}
}

// TestGroupCommitDoesNotCopyPayloads: a group-committed append
// allocates its header line and completion channel, never a copy of
// its payload — the flusher writes the payload where the caller holds
// it.
func TestGroupCommitDoesNotCopyPayloads(t *testing.T) {
	big := bigPayload()
	w := NewSyncedWriter(io.Discard, func() error { return nil }, Options{})
	defer w.Close()
	if _, err := w.Append(Record{Kind: KindHeader}); err != nil {
		t.Fatal(err)
	}
	const appends = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		if _, err := w.Append(Record{Kind: KindUnit, Unit: "u", Payload: big}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / appends; per >= 16<<10 {
		t.Errorf("a group-committed append of a 1 MiB payload allocates %d bytes, want under 16 KiB", per)
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
