package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"sync"
	"time"

	"rnascale/internal/obs/perf"
)

// DefaultBatchSize is the group-commit batch bound when the caller
// does not choose one: up to this many concurrent appends share one
// write+fsync.
const DefaultBatchSize = 64

// ErrClosed is returned by Append on a closed writer.
var ErrClosed = errors.New("journal: writer closed")

// Options tunes the group-commit window of a durable Writer.
type Options struct {
	// BatchSize caps the records coalesced into one write+fsync.
	// <= 0 means DefaultBatchSize; 1 degenerates to the classic
	// fsync-per-append writer.
	BatchSize int
	// MaxWait is how long a flush lingers to fill its batch after the
	// first record arrives. Zero (the default) flushes whatever has
	// queued the moment the flusher is free — batching then emerges
	// naturally under contention (appends arriving during an fsync
	// ride the next one) and a lone appender never waits. Positive
	// values trade per-append latency for fuller batches.
	MaxWait time.Duration
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	return o
}

// pendingAppend is one enqueued record awaiting durability.
type pendingAppend struct {
	line []byte
	done chan error
}

// Writer appends records to a journal, stamping each with its
// sequence number and hash-chain digest. Appends are durable before
// they return: when the journal is synced (file-backed), the record
// has been written and fsynced — possibly sharing the fsync with a
// batch of concurrent appenders (group commit) — so a record handed
// to Append survives a crash of the writer's process.
//
// The writer is fail-stop: the first write or sync error poisons it,
// and every subsequent Append returns that original error. A failed
// write may have left partial bytes at the tail; appending after
// them would fuse records, so the only safe continuation is a fresh
// Continue, which truncates the tail to the last chain-verified
// record.
type Writer struct {
	opts Options

	mu      sync.Mutex
	w       io.Writer
	file    *os.File     // non-nil when file-backed
	syncFn  func() error // nil = no durability beyond the sink
	seq     int
	chain   [chainHexLen]byte // hex chain digest of the last stamped record
	err     error             // sticky fail-stop error
	closed  bool
	pending []pendingAppend

	// Append's scratch, guarded by mu and reused for every record: the
	// record being marshalled, the encoder and buffer its line is built
	// in (let go after a line larger than maxKeptLine), and the SHA-256
	// state and sum of its chain link.
	rec  Record
	line bytes.Buffer
	enc  *json.Encoder
	h    hash.Hash
	sum  [sha256.Size]byte

	// Group-commit machinery, nil for unsynced (sink-only) writers —
	// with no fsync to amortize they write synchronously instead.
	wake        chan struct{}
	flusherDone chan struct{}
	buf         []byte // flusher's reusable coalescing buffer
}

// maxKeptLine bounds the line buffer a Writer keeps between appends.
// A larger record — a stage's worth of reads or contigs — gets a
// buffer that is released with it, so a writer that outlives its run
// (the gateway holds one per finished run) never pins its largest
// record.
const maxKeptLine = 64 << 10

// NewWriter returns a Writer over an arbitrary sink (no durability
// beyond the sink itself). With no fsync to amortize, appends write
// through synchronously. Used by tests and in-memory callers.
func NewWriter(w io.Writer) *Writer {
	return newWriter(w, nil, nil, 0, ChainSeed(), Options{})
}

// newWriter arms a writer that appends after seq records whose chain
// head is chain; a sync hook makes it group-committing.
func newWriter(sink io.Writer, file *os.File, syncFn func() error, seq int, chain string, opts Options) *Writer {
	w := &Writer{w: sink, file: file, syncFn: syncFn, seq: seq, opts: opts.withDefaults(), h: sha256.New()}
	copy(w.chain[:], chain)
	w.enc = json.NewEncoder(&w.line)
	if syncFn != nil {
		w.wake = make(chan struct{}, 1)
		w.flusherDone = make(chan struct{})
		go w.flusher()
	}
	return w
}

// NewSyncedWriter returns a group-committing Writer over a sink with
// an explicit sync hook — the seam benchmarks and tests use to count
// or simulate fsyncs.
func NewSyncedWriter(w io.Writer, sync func() error, opts Options) *Writer {
	return newWriter(w, nil, sync, 0, ChainSeed(), opts)
}

// Create creates (truncating) a file-backed journal at path with
// default group-commit options.
func Create(path string) (*Writer, error) { return CreateOptions(path, Options{}) }

// CreateOptions creates (truncating) a file-backed journal at path.
func CreateOptions(path string, opts Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return newWriter(f, f, f.Sync, 0, ChainSeed(), opts), nil
}

// Continue opens an existing journal for resumption: it reads the
// surviving prefix and returns it alongside a Writer that appends
// after it, numbering and chaining records where the prefix left
// off. A damaged tail is repaired in place before the writer is
// armed — a torn or unverifiable suffix is truncated back to the
// last chain-verified record, and a final record that lost only its
// trailing newline gets the newline restored (without it, the
// O_APPEND write of the next record would fuse onto the same line
// and corrupt the journal). Log.Repair describes what was done.
func Continue(path string) (*Log, *Writer, error) { return ContinueOptions(path, Options{}) }

// ContinueOptions is Continue with explicit group-commit options.
func ContinueOptions(path string, opts Options) (*Log, *Writer, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	lg, goodEnd, _ := scan(b)
	if err := lg.usable(path); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if goodEnd < len(b) {
		// Unverifiable tail: cut back to the chain-verified prefix.
		// (ftruncate addresses an absolute offset; O_APPEND only
		// affects where subsequent writes land.)
		if err := f.Truncate(int64(goodEnd)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate damaged tail: %w", err)
		}
	}
	if lg.Repair != nil && lg.Repair.RepairedNewline {
		if _, err := f.Write([]byte("\n")); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: restore final newline: %w", err)
		}
	}
	if lg.Repair != nil {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: sync repair: %w", err)
		}
	}
	return lg, newWriter(f, f, f.Sync, len(lg.Records), lg.ChainHead(), opts), nil
}

// Append stamps the record's sequence number and chain digest,
// writes it as one JSON line and makes it durable before returning.
// Concurrent appends may share a single write+fsync (group commit);
// each still only returns once its own record is down. The stamped
// record is returned.
func (w *Writer) Append(rec Record) (Record, error) {
	defer perf.Region("journal.append").End()
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return rec, err
	}
	if w.closed {
		w.mu.Unlock()
		return rec, ErrClosed
	}
	rec.Seq = w.seq
	rec.Chain = ""
	if rec.Digest == "" && len(rec.Payload) > 0 {
		// Readers verify the payload digest on every record that
		// carries a payload; stamp it for callers that did not.
		rec.Digest = Digest(rec.Payload)
	}
	// The encoder writes what json.Marshal returns plus a newline: the
	// chainless body the chain and Merkle leaves are defined over.
	w.rec = rec
	w.line.Reset()
	if err := w.enc.Encode(&w.rec); err != nil {
		// Nothing reached the sink: the writer stays usable and the
		// sequence number is not consumed.
		w.mu.Unlock()
		return rec, fmt.Errorf("journal: marshal record %d: %w", rec.Seq, err)
	}
	body := w.line.Bytes()[:w.line.Len()-1]
	w.h.Reset()
	w.h.Write(w.chain[:])
	w.h.Write(newline)
	w.h.Write(body)
	hex.Encode(w.chain[:], w.h.Sum(w.sum[:0]))
	// Splice the chain in as the body's final field, in place.
	w.line.Truncate(len(body) - 1)
	w.line.WriteString(chainOpen)
	w.line.Write(w.chain[:])
	w.line.WriteString(chainClose + "\n")
	rec.Chain = string(w.chain[:])
	w.seq++
	w.rec.Payload = nil
	line := w.line.Bytes()
	if w.line.Cap() > maxKeptLine {
		w.line = bytes.Buffer{} // the line leaves with its buffer
	} else if w.wake != nil {
		line = bytes.Clone(line) // the flusher reads it after the next append reuses the buffer
	}

	if w.wake == nil {
		// Unsynced sink: write through synchronously.
		err := w.writeLocked(line)
		w.mu.Unlock()
		return rec, err
	}
	done := make(chan error, 1)
	w.pending = append(w.pending, pendingAppend{line: line, done: done})
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return rec, <-done
}

// writeLocked is the synchronous path for unsynced writers; the
// caller holds w.mu. A write error poisons the writer: partial bytes
// may have reached the sink.
func (w *Writer) writeLocked(line []byte) error {
	if _, err := w.w.Write(line); err != nil {
		w.err = fmt.Errorf("journal: append record %d: %w", w.seq-1, err)
		return w.err
	}
	return nil
}

// flusher drains pending appends in batches: one write+fsync per
// batch, every batch member notified with the outcome.
func (w *Writer) flusher() {
	defer close(w.flusherDone)
	for {
		<-w.wake
		for w.flushOnce() {
		}
		w.mu.Lock()
		exit := w.closed && len(w.pending) == 0
		w.mu.Unlock()
		if exit {
			return
		}
	}
}

// flushOnce commits one batch. It reports whether anything was
// pending (false stops the drain loop).
func (w *Writer) flushOnce() bool {
	w.mu.Lock()
	if len(w.pending) == 0 {
		w.mu.Unlock()
		return false
	}
	if w.err != nil {
		// Poisoned: fail everything queued with the original error.
		batch := w.pending
		w.pending = nil
		err := w.err
		w.mu.Unlock()
		for _, p := range batch {
			p.done <- err
		}
		return true
	}
	max := w.opts.BatchSize
	if w.opts.MaxWait > 0 && len(w.pending) < max && !w.closed {
		w.mu.Unlock()
		w.fillWindow(max)
		w.mu.Lock()
	}
	n := len(w.pending)
	if n > max {
		n = max
	}
	batch := w.pending[:n:n]
	w.pending = w.pending[n:]
	w.mu.Unlock()

	buf := w.buf[:0]
	for _, p := range batch {
		buf = append(buf, p.line...)
	}
	w.buf = buf
	_, werr := w.w.Write(buf)
	if werr == nil && w.syncFn != nil {
		werr = w.syncFn()
	}
	if werr != nil {
		werr = fmt.Errorf("journal: append batch of %d: %w", n, werr)
		w.mu.Lock()
		if w.err == nil {
			w.err = werr
		} else {
			werr = w.err
		}
		w.mu.Unlock()
	}
	for _, p := range batch {
		p.done <- werr
	}
	return true
}

// fillWindow lingers up to MaxWait for the batch to fill. Wake
// signals consumed here are not lost: the caller re-examines pending
// under the lock, and the drain loop runs until pending is empty.
func (w *Writer) fillWindow(max int) {
	deadline := time.NewTimer(w.opts.MaxWait)
	defer deadline.Stop()
	for {
		w.mu.Lock()
		full := len(w.pending) >= max || w.closed
		w.mu.Unlock()
		if full {
			return
		}
		select {
		case <-w.wake:
		case <-deadline.C:
			return
		}
	}
}

// Seq returns the sequence number the next Append will stamp.
func (w *Writer) Seq() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// ChainHead returns the chain digest of the last stamped record (the
// value Verify reports for an intact journal).
func (w *Writer) ChainHead() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.chain[:])
}

// Err returns the writer's sticky append error, nil while healthy.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close drains pending appends, stops the flusher and closes the
// underlying file, if any. Safe to call more than once.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	hasFlusher := w.wake != nil
	w.mu.Unlock()
	if hasFlusher {
		select {
		case w.wake <- struct{}{}:
		default:
		}
		<-w.flusherDone
	}
	if w.file != nil {
		return w.file.Close()
	}
	return nil
}
