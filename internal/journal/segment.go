package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DefaultRotateEvery is the per-segment record bound when the caller
// does not choose one.
const DefaultRotateEvery = 512

// SegmentedOptions tunes a segmented journal.
type SegmentedOptions struct {
	// RotateEvery caps the records per segment (header included)
	// before appends rotate to a fresh segment. <= 0 means
	// DefaultRotateEvery.
	RotateEvery int
	// Write is forwarded to each segment's Writer.
	Write Options
}

// Segmented is a journal for long-lived tables (the gateway's event
// log): records rotate across chained segment files
// <dir>/<prefix>-NNNNNN.journal, and Compact folds history into a
// snapshot segment so the directory does not grow without bound.
//
// Each segment is an ordinary journal — independently chain-verified
// from its own header — and segments link: a segment's header record
// carries the previous segment's chain head in its Digest field, so
// a missing or reordered segment breaks verification just like a
// tampered record does inside one.
//
// Appends are serialized (callers that need cross-record ordering,
// like last-wins replay, rely on that); the group-commit batching of
// the underlying Writer therefore pays off for concurrent pipeline
// journals, not here.
type Segmented struct {
	dir    string
	prefix string
	opts   SegmentedOptions

	mu    sync.Mutex
	w     *Writer
	index int // current segment index
	count int // records in the current segment, header included
}

func (s *Segmented) segPath(index int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s-%06d.journal", s.prefix, index))
}

// segmentIndices lists the existing segment indices under dir, sorted.
func segmentIndices(dir, prefix string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix+"-") || !strings.HasSuffix(name, ".journal") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, prefix+"-"), ".journal"))
		if err != nil || n < 0 {
			continue
		}
		idxs = append(idxs, n)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// OpenSegmented opens (creating dir if needed) the segmented journal
// <dir>/<prefix>-*.journal and returns it along with every surviving
// non-header record across segments, in append order, for replay.
//
// Segments before the last are read strictly — damage there is not
// crash-shaped and is an error — and each must chain to its
// predecessor's head. The last segment may carry a torn tail from a
// crashed writer; it is repaired the way Continue repairs a pipeline
// journal. A last segment with no verifiable records at all (a crash
// inside rotation, before its header was durable) is set aside as
// <segment>.damaged and replaced, unless it is the only segment — an
// event log reduced to nothing but damage needs an operator, not a
// silent reset.
func OpenSegmented(dir, prefix string, opts SegmentedOptions) (*Segmented, []Record, error) {
	if opts.RotateEvery <= 0 {
		opts.RotateEvery = DefaultRotateEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &Segmented{dir: dir, prefix: prefix, opts: opts}
	idxs, err := segmentIndices(dir, prefix)
	if err != nil {
		return nil, nil, err
	}
	if len(idxs) == 0 {
		if err := s.newSegmentLocked(0, ""); err != nil {
			return nil, nil, err
		}
		return s, nil, nil
	}
	var replay []Record
	prevHead := ""
	for i, idx := range idxs[:len(idxs)-1] {
		lg, err := Open(s.segPath(idx))
		if err != nil {
			return nil, nil, fmt.Errorf("journal: segment %d: %w", idx, err)
		}
		if i > 0 && lg.Header().Digest != prevHead {
			return nil, nil, fmt.Errorf("journal: segment %d does not chain to segment %d (a segment is missing, truncated or reordered)",
				idx, idxs[i-1])
		}
		replay = append(replay, lg.Records[1:]...)
		prevHead = lg.ChainHead()
	}
	last := idxs[len(idxs)-1]
	lg, w, err := ContinueOptions(s.segPath(last), opts.Write)
	if err != nil {
		if len(idxs) == 1 {
			return nil, nil, fmt.Errorf("journal: segment %d: %w", last, err)
		}
		if rerr := os.Rename(s.segPath(last), s.segPath(last)+".damaged"); rerr != nil {
			return nil, nil, rerr
		}
		if err := s.newSegmentLocked(last, prevHead); err != nil {
			return nil, nil, err
		}
		return s, replay, nil
	}
	if len(idxs) > 1 && lg.Header().Digest != prevHead {
		w.Close() //rnavet:allow errdrop — error-path cleanup of a writer we never appended to; the chain-break error wins
		return nil, nil, fmt.Errorf("journal: segment %d does not chain to segment %d (a segment is missing, truncated or reordered)",
			last, idxs[len(idxs)-2])
	}
	replay = append(replay, lg.Records[1:]...)
	s.w, s.index, s.count = w, last, len(lg.Records)
	return s, replay, nil
}

// newSegmentLocked creates segment index and writes its header, whose
// Digest field records the previous segment's chain head (empty for a
// first segment). Caller holds s.mu or is initializing.
func (s *Segmented) newSegmentLocked(index int, prevHead string) error {
	w, err := CreateOptions(s.segPath(index), s.opts.Write)
	if err != nil {
		return err
	}
	if _, err := w.Append(Record{Kind: KindHeader, Note: fmt.Sprintf("segment %d", index), Digest: prevHead}); err != nil {
		w.Close() //rnavet:allow errdrop — error-path cleanup; the header append error wins and the segment is discarded
		return err
	}
	s.w, s.index, s.count = w, index, 1
	return nil
}

// Append appends one record, rotating to a fresh chained segment when
// the current one is full. Durable before it returns.
func (s *Segmented) Append(rec Record) (Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return rec, ErrClosed
	}
	if s.count >= s.opts.RotateEvery {
		if err := s.rotateLocked(); err != nil {
			return rec, err
		}
	}
	out, err := s.w.Append(rec) //rnavet:allow lockheld — appends are serialized under s.mu by design: rotation must not interleave with appends, and the inner writer's group commit bounds the hold
	if err == nil {
		s.count++
	}
	return out, err
}

func (s *Segmented) rotateLocked() error {
	head := s.w.ChainHead()
	if err := s.w.Close(); err != nil {
		return err
	}
	return s.newSegmentLocked(s.index+1, head)
}

// Compact folds the journal's history into a snapshot: the given
// records are written to a fresh segment chained after the current
// one, and once they are durable every older segment is deleted. A
// crash inside the deletion window leaves old segments alongside the
// snapshot; replay then sees some records twice, which last-wins
// callers tolerate, and the next Compact finishes the cleanup.
func (s *Segmented) Compact(snapshot []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return ErrClosed
	}
	old, err := segmentIndices(s.dir, s.prefix)
	if err != nil {
		return err
	}
	if err := s.rotateLocked(); err != nil {
		return err
	}
	for _, rec := range snapshot {
		if _, err := s.w.Append(rec); err != nil { //rnavet:allow lockheld — the snapshot is written under s.mu by design so no concurrent append can land between rotation and cleanup
			return err
		}
		s.count++
	}
	for _, idx := range old {
		if idx < s.index {
			if err := os.Remove(s.segPath(idx)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close closes the current segment's writer. Safe to call more than
// once.
func (s *Segmented) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	err := s.w.Close() //rnavet:allow lockheld — Close must exclude concurrent Append on the same segment; the final flush is the only work under the lock
	s.w = nil
	return err
}
