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

// pendingAppend is one enqueued record awaiting durability: its
// header line, copied out of the writer's scratch, and the caller's
// payload, aliased where it lies — Append returns only after the
// flusher is done with it.
type pendingAppend struct {
	head    []byte
	payload []byte
	done    chan error
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
	chain   [sha256.Size]byte // chain digest of the last stamped record
	err     error             // sticky fail-stop error
	closed  bool
	pending []pendingAppend
	spare   []pendingAppend // the flusher's drained queue array, reused

	// Append's scratch, guarded by mu and reused for every record: the
	// record and header being marshalled, the encoder and buffer its
	// header line is built in (never its payload), and the SHA-256
	// state, leaf and hex chain digest.
	rec      Record
	hdr      header
	line     bytes.Buffer
	enc      *json.Encoder
	h        hash.Hash
	leaf     [sha256.Size]byte
	chainHex [chainHexLen]byte

	// Group-commit machinery, nil for unsynced (sink-only) writers —
	// with no fsync to amortize they write synchronously instead.
	wake        chan struct{}
	flusherDone chan struct{}
	buf         []byte // flusher's coalescing buffer, made by the first batch
}

// flushBufSize is the capacity of the flusher's coalescing buffer.
// Header lines and payloads that fit share one write; a payload that
// does not is written where the caller holds it, never copied. The
// buffer never grows, so a writer keeps the same few KiB whatever the
// largest record or batch it has committed.
const flushBufSize = 4 << 10

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
	copy(w.chainHex[:], chain)
	hex.Decode(w.chain[:], w.chainHex[:]) // a verified chain digest or the seed: always 64 hex digits
	w.hdr.Record = &w.rec
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
	lg, goodEnd, bad := scan(b)
	if err := lg.usable(path, bad); err != nil {
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
// writes its header line and payload and makes them durable before
// returning.
// Concurrent appends may share a single write+fsync (group commit);
// each still only returns once its own record is down. The stamped
// record is returned.
func (w *Writer) Append(rec Record) (Record, error) {
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
	// The encoder writes what marshalHeader returns plus a newline: the
	// chainless header the chain and Merkle leaves begin with.
	w.rec = rec
	w.hdr.PayloadBytes = len(rec.Payload)
	w.line.Reset()
	if err := w.enc.Encode(&w.hdr); err != nil {
		// Nothing reached the sink: the writer stays usable and the
		// sequence number is not consumed.
		w.mu.Unlock()
		return rec, fmt.Errorf("journal: marshal record %d: %w", rec.Seq, err)
	}
	head := w.line.Bytes()[:w.line.Len()-1]
	w.h.Reset()
	w.h.Write(leafPrefix)
	w.h.Write(head)
	w.h.Write(rec.Payload)
	w.h.Sum(w.leaf[:0])
	w.h.Reset()
	w.h.Write(w.chain[:])
	w.h.Write(w.leaf[:])
	w.h.Sum(w.chain[:0])
	hex.Encode(w.chainHex[:], w.chain[:])
	// Splice the chain in as the header's final field, in place. The
	// payload and its newline follow the header line in the sink.
	w.line.Truncate(len(head) - 1)
	w.line.WriteString(chainOpen)
	w.line.Write(w.chainHex[:])
	w.line.WriteString(chainClose + "\n")
	rec.Chain = string(w.chainHex[:])
	w.seq++
	w.rec.Payload = nil

	if w.wake == nil {
		// Unsynced sink: write through synchronously.
		err := w.writeLocked(w.line.Bytes(), rec.Payload)
		w.mu.Unlock()
		return rec, err
	}
	done := make(chan error, 1)
	// The header is copied (the next append reuses w.line); the payload
	// is not: the caller cannot touch it before done reports.
	w.pending = append(w.pending, pendingAppend{head: bytes.Clone(w.line.Bytes()), payload: rec.Payload, done: done})
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return rec, <-done
}

// writeLocked is the synchronous path for unsynced writers: the header
// line, then the payload and its newline, each written where it lies.
// The caller holds w.mu. A write error poisons the writer: partial
// bytes may have reached the sink.
func (w *Writer) writeLocked(head, payload []byte) error {
	_, err := w.w.Write(head)
	if err == nil && len(payload) > 0 {
		if _, err = w.w.Write(payload); err == nil {
			_, err = w.w.Write(newline)
		}
	}
	if err != nil {
		w.err = fmt.Errorf("journal: append record %d: %w", w.seq-1, err)
		return w.err
	}
	return nil
}

// flusher drains pending appends in batches: one fsync per batch,
// every batch member notified with the outcome. A batch of small
// records is one write; each payload larger than the coalescing
// buffer adds a write of its own.
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
	queued := w.pending
	batch := queued[:n:n]
	if n == len(queued) {
		// Appenders queue into the spare array while this one is written;
		// it becomes the spare once the batch is done.
		w.pending = w.spare
		w.spare = nil
	} else {
		w.pending = queued[n:]
	}
	w.mu.Unlock()

	werr := w.writeBatch(batch)
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
	if n == len(queued) {
		clear(batch) // let go of the payloads
		w.spare = queued[:0]
	}
	return true
}

// writeBatch writes a batch's records in order: each header line, then
// its payload and newline. Pieces that fit collect in w.buf and go down
// together; a payload that does not fit is written where it lies,
// after whatever the buffer held before it.
func (w *Writer) writeBatch(batch []pendingAppend) error {
	if w.buf == nil {
		w.buf = make([]byte, 0, flushBufSize)
	}
	for _, p := range batch {
		err := w.put(p.head)
		if err == nil && len(p.payload) > 0 {
			if err = w.put(p.payload); err == nil {
				err = w.put(newline)
			}
		}
		if err != nil {
			return err
		}
	}
	return w.drain()
}

// put queues b behind the buffered bytes, writing them first when b
// does not fit, and writing b itself when it is larger than the buffer.
func (w *Writer) put(b []byte) error {
	if len(w.buf)+len(b) > cap(w.buf) {
		if err := w.drain(); err != nil {
			return err
		}
		if len(b) > cap(w.buf) {
			_, err := w.w.Write(b)
			return err
		}
	}
	w.buf = append(w.buf, b...)
	return nil
}

// drain writes and empties the coalescing buffer.
func (w *Writer) drain() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	return err
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

// ChainHead returns the chain digest of the last stamped record (the
// value Verify reports for an intact journal).
func (w *Writer) ChainHead() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return string(w.chainHex[:])
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
