// Package mpi provides a Message Passing Interface runtime for the
// distributed assemblers (Ray and ABySS in the paper, reimplemented in
// internal/assembler). Ranks are goroutines exchanging real payloads
// over channels; each rank additionally carries a *virtual clock* that
// accrues compute cost (explicitly, via Compute) and communication
// cost (from a latency+bandwidth network model, distinguishing
// intra-node from inter-node links).
//
// The job's virtual time-to-completion is the maximum rank clock at
// finalization. Because per-rank compute shrinks with rank count while
// all-to-all message count grows, programs written against this
// runtime naturally reproduce the scale-out shapes the paper measured
// on EC2: marginal gains for Ray, near-flat TTC for ABySS.
package mpi

import (
	"fmt"
	"sync"

	"rnascale/internal/vclock"
)

// Config describes the machine an MPI job runs on.
type Config struct {
	// Ranks is the world size (SGE slots granted to the job).
	Ranks int
	// RanksPerNode maps ranks to nodes: rank r lives on node
	// r/RanksPerNode. Zero means all ranks share one node.
	RanksPerNode int
	// Intra and Inter are the communication cost models within a node
	// and across nodes.
	Intra, Inter vclock.CommCost
	// MailboxDepth is the per-pair channel buffer; sends beyond it
	// block until the receiver drains (default 4096).
	MailboxDepth int
}

// DefaultConfig returns a single-node world of n ranks with the
// intra-node link of the paper's EC2 instances. No rank of it reads
// Inter: a caller that spreads the world over nodes sets RanksPerNode
// and the provider's inter-node link.
func DefaultConfig(n int) Config {
	return Config{
		Ranks:        n,
		RanksPerNode: n,
		Intra:        vclock.CommCost{Latency: 2e-6, Bandwidth: 3e9},
	}
}

// message is one point-to-point payload with its timing envelope.
type message struct {
	payload  any
	bytes    int64
	arriveAt vclock.Time
}

// Stats aggregates traffic over a finished job.
type Stats struct {
	Messages  int64
	BytesSent int64
}

// Result summarizes a finished MPI job.
type Result struct {
	// Elapsed is the job's virtual duration: the maximum rank clock.
	Elapsed vclock.Duration
	// PerRank lists each rank's final virtual clock.
	PerRank []vclock.Duration
	// Stats is the summed traffic of all ranks.
	Stats Stats
}

// World is the shared state of a running job.
type World struct {
	cfg Config
	// boxes holds the point-to-point mailboxes, created lazily on
	// first use: a world of n ranks would otherwise allocate n²
	// buffered channels up front, which at large n costs gigabytes
	// for programs (like the DBG assemblers) that only use
	// collectives.
	boxMu sync.Mutex
	boxes map[[2]int]chan message

	collMu   sync.Mutex
	collCond *sync.Cond
	collGen  int
	collIn   int
	collVT   vclock.Time
	collBuf  []any
	collMat  [][]any
	collOut  []any
	collOutM [][]any
	collTime vclock.Time
}

// Comm is one rank's handle to the world. Each Comm is owned by
// exactly one goroutine.
type Comm struct {
	world *World
	rank  int
	vt    vclock.Time
	stats Stats
	err   error
}

// Run executes fn on every rank of a fresh world and blocks until all
// ranks return. The first rank error (lowest rank number) is
// returned; the Result is valid either way.
func Run(cfg Config, fn func(*Comm) error) (Result, error) {
	if cfg.Ranks <= 0 {
		return Result{}, fmt.Errorf("mpi: world size %d", cfg.Ranks)
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = cfg.Ranks
	}
	if cfg.MailboxDepth <= 0 {
		cfg.MailboxDepth = 4096
	}
	w := &World{cfg: cfg, boxes: make(map[[2]int]chan message)}
	w.collCond = sync.NewCond(&w.collMu)
	comms := make([]*Comm, cfg.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < cfg.Ranks; r++ {
		comms[r] = &Comm{world: w, rank: r}
		wg.Add(1)
		go func(c *Comm) {
			defer wg.Done()
			c.err = fn(c)
		}(comms[r])
	}
	wg.Wait()
	res := Result{PerRank: make([]vclock.Duration, cfg.Ranks)}
	var firstErr error
	for r, c := range comms {
		res.PerRank[r] = vclock.Duration(c.vt)
		if vclock.Duration(c.vt) > res.Elapsed {
			res.Elapsed = vclock.Duration(c.vt)
		}
		res.Stats.Messages += c.stats.Messages
		res.Stats.BytesSent += c.stats.BytesSent
		if c.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("mpi: rank %d: %w", r, c.err)
		}
	}
	return res, firstErr
}

// Rank reports this rank's number in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size reports the world size.
func (c *Comm) Size() int { return c.world.cfg.Ranks }

// Node reports the node index hosting this rank.
func (c *Comm) Node() int { return c.rank / c.world.cfg.RanksPerNode }

// Compute advances this rank's clock by d of local computation.
func (c *Comm) Compute(d vclock.Duration) {
	if d < 0 {
		panic("mpi: negative compute")
	}
	c.vt = c.vt.Add(d)
}

// ComputeUnits advances the clock by units of work at the given
// per-second rate.
func (c *Comm) ComputeUnits(units, unitsPerSecond float64) {
	c.Compute(vclock.ComputeCost{UnitsPerSecond: unitsPerSecond}.Time(units, 1))
}

// linkTo picks the cost model for traffic to rank dst.
func (c *Comm) linkTo(dst int) vclock.CommCost {
	if c.Node() == dst/c.world.cfg.RanksPerNode {
		return c.world.cfg.Intra
	}
	return c.world.cfg.Inter
}

// Send delivers payload (declared as `bytes` wire bytes) to rank dst.
// The sender's clock advances by the transfer time (blocking send).
func (c *Comm) Send(dst int, payload any, bytes int64) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("mpi: send to rank %d of %d", dst, c.Size()))
	}
	cost := c.linkTo(dst).Transfer(bytes)
	c.vt = c.vt.Add(cost)
	c.stats.Messages++
	c.stats.BytesSent += bytes
	c.world.box(c.rank, dst) <- message{payload: payload, bytes: bytes, arriveAt: c.vt}
}

// box returns (creating on demand) the mailbox for the src→dst pair.
func (w *World) box(src, dst int) chan message {
	w.boxMu.Lock()
	defer w.boxMu.Unlock()
	key := [2]int{src, dst}
	ch, ok := w.boxes[key]
	if !ok {
		ch = make(chan message, w.cfg.MailboxDepth)
		w.boxes[key] = ch
	}
	return ch
}

// Recv blocks for the next message from rank src and advances the
// receiver's clock to the message arrival if that is later.
func (c *Comm) Recv(src int) (any, int64) {
	if src < 0 || src >= c.Size() {
		panic(fmt.Sprintf("mpi: recv from rank %d of %d", src, c.Size()))
	}
	m := <-c.world.box(src, c.rank)
	if m.arriveAt > c.vt {
		c.vt = m.arriveAt
	}
	return m.payload, m.bytes
}

// collective is the bulk-synchronous rendezvous underlying every
// collective operation. Each rank contributes `in` (and optionally a
// row `row` for all-to-all); the last arriver runs finish, which must
// fill w.collOut / w.collOutM and set w.collTime (the synchronized
// post-collective clock). All ranks leave with vt = collTime.
func (c *Comm) collective(in any, row []any, finish func(w *World)) (any, []any) {
	w := c.world
	w.collMu.Lock()
	gen := w.collGen
	if w.collIn == 0 {
		w.collBuf = make([]any, c.Size())
		w.collMat = make([][]any, c.Size())
		w.collVT = 0
	}
	w.collBuf[c.rank] = in
	w.collMat[c.rank] = row
	if c.vt > w.collVT {
		w.collVT = c.vt
	}
	w.collIn++
	if w.collIn == c.Size() {
		finish(w)
		w.collIn = 0
		w.collGen++
		w.collCond.Broadcast()
	} else {
		for w.collGen == gen {
			w.collCond.Wait()
		}
	}
	out := w.collOut
	outM := w.collOutM
	t := w.collTime
	w.collMu.Unlock()
	c.vt = t
	if out != nil {
		return out[c.rank], nil
	}
	if outM != nil {
		return nil, outM[c.rank]
	}
	return nil, nil
}

// barrierCost models a log-depth dissemination barrier over the
// slowest link in the world.
func (w *World) barrierCost() vclock.Duration {
	n := w.cfg.Ranks
	if n <= 1 {
		return 0
	}
	depth := 0
	for 1<<depth < n {
		depth++
	}
	link := w.cfg.Intra
	if n > w.cfg.RanksPerNode {
		link = w.cfg.Inter
	}
	return vclock.Duration(float64(depth)) * link.Latency
}

// Barrier synchronizes all ranks; every clock advances to the world
// maximum plus the barrier cost.
func (c *Comm) Barrier() {
	c.collective(nil, nil, func(w *World) {
		w.collOut = make([]any, w.cfg.Ranks)
		w.collOutM = nil
		w.collTime = w.collVT.Add(w.barrierCost())
	})
}

// AllGather collects every rank's payload; each rank receives the full
// slice indexed by rank. bytes is this rank's contribution size.
func (c *Comm) AllGather(payload any, bytes int64) []any {
	type contrib struct {
		p any
		b int64
	}
	_, out := c.collective(contrib{payload, bytes}, nil, func(w *World) {
		gathered := make([]any, w.cfg.Ranks)
		var total int64
		for i, v := range w.collBuf {
			cv := v.(contrib)
			gathered[i] = cv.p
			total += cv.b
		}
		w.collOut = nil
		w.collOutM = make([][]any, w.cfg.Ranks)
		for i := range w.collOutM {
			w.collOutM[i] = gathered
		}
		link := w.cfg.Intra
		if w.cfg.Ranks > w.cfg.RanksPerNode {
			link = w.cfg.Inter
		}
		// Ring allgather: n-1 latency steps plus the full volume once
		// around the ring.
		w.collTime = w.collVT.Add(vclock.Duration(w.cfg.Ranks-1)*link.Latency + link.Transfer(total) - link.Latency)
	})
	return out
}

// AllReduceFloat combines one float64 per rank with op and returns the
// result on every rank.
func (c *Comm) AllReduceFloat(x float64, op func(a, b float64) float64) float64 {
	out, _ := c.collective(x, nil, func(w *World) {
		acc := w.collBuf[0].(float64)
		for _, v := range w.collBuf[1:] {
			acc = op(acc, v.(float64))
		}
		w.collOutM = nil
		w.collOut = make([]any, w.cfg.Ranks)
		for i := range w.collOut {
			w.collOut[i] = acc
		}
		w.collTime = w.collVT.Add(w.barrierCost())
	})
	return out.(float64)
}

// AllReduceInt combines one int64 per rank.
func (c *Comm) AllReduceInt(x int64, op func(a, b int64) int64) int64 {
	f := c.AllReduceFloat(float64(x), func(a, b float64) float64 {
		return float64(op(int64(a), int64(b)))
	})
	return int64(f)
}

// AlltoAll sends payloads[d] (of bytes[d] wire bytes) to each rank d
// and returns the column addressed to this rank, indexed by source.
// The synchronized cost is the maximum per-rank serialized send time,
// the congestion pattern that limits DBG assemblers' scale-out.
func (c *Comm) AlltoAll(payloads []any, bytes []int64) []any {
	if len(payloads) != c.Size() || len(bytes) != c.Size() {
		panic(fmt.Sprintf("mpi: alltoall with %d payloads, %d sizes in world %d",
			len(payloads), len(bytes), c.Size()))
	}
	for d := range bytes {
		if d != c.rank {
			c.stats.Messages++
			c.stats.BytesSent += bytes[d]
		}
	}
	return c.alltoallImpl(payloads, bytes)
}

// alltoallImpl performs the rendezvous and data redistribution.
func (c *Comm) alltoallImpl(payloads []any, bytes []int64) []any {
	type row struct {
		p []any
		b []int64
	}
	_, col := c.collective(nil, []any{row{payloads, bytes}}, func(w *World) {
		n := w.cfg.Ranks
		// Reassemble: out[r][s] = payload sent from s to r.
		w.collOut = nil
		w.collOutM = make([][]any, n)
		var maxSendCost vclock.Duration
		for r := range w.collOutM {
			w.collOutM[r] = make([]any, n)
		}
		for s := 0; s < n; s++ {
			rw := w.collMat[s][0].(row)
			var sendCost vclock.Duration
			for d := 0; d < n; d++ {
				w.collOutM[d][s] = rw.p[d]
				if d == s {
					continue
				}
				link := w.cfg.Intra
				if s/w.cfg.RanksPerNode != d/w.cfg.RanksPerNode {
					link = w.cfg.Inter
				}
				sendCost += link.Transfer(rw.b[d])
			}
			if sendCost > maxSendCost {
				maxSendCost = sendCost
			}
		}
		w.collTime = w.collVT.Add(maxSendCost)
	})
	return col
}
