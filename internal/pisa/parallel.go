package pisa

import (
	"time"

	"p4auth/internal/crypto"
)

// Ingress lanes and the batch processing entry.
//
// Lane model: a switch built WithWorkers(n) models n ingress pipes.
// Packets are assigned to lanes by ingress port (lane = port mod n), so
// every packet stream that shares a port — and therefore shares a port
// key, a replay-floor slot, and a sequence number order — is processed by
// exactly one lane, in submission order. That is what keeps the replay
// defence correct: the RMWMax floor on a slot only ever observes the
// ascending sequence numbers its sender produced, never a reordering
// introduced by the switch. Each lane draws random() from its own
// deterministic fork of the switch seed (crypto.Forkable) and bumps its
// own counter shard, and a batch's modeled cost is the slowest lane's
// summed cost, as if the pipes ran side by side.
//
// ProcessBatch runs the lanes one after another, lane 0 first, on the
// caller's goroutine. Lanes that share state (a register cell two ports
// both write, such as HULA's best hop) therefore interact in one fixed
// order, and a run's outputs depend only on (seed, workers, batch
// contents). With workers <= 1, or a batch of one packet, ProcessBatch is
// a plain ProcessInto loop — bit-identical to the serial data plane,
// including the random() draw order from the base source, which is why
// the chaos harnesses keep their golden traces.

// BatchResult holds the outcome of one ProcessBatch call.
//
// Unlike a reused single Result — whose emission buffers recycle on every
// ProcessInto — each packet of a batch writes into its own Result, so all
// emission buffers stay valid until the next ProcessBatch (or reuse of
// the individual Results). That stability is what lets the switchos batch
// path hand emission bytes upward without an intermediate copy.
type BatchResult struct {
	// Results holds one Result per input packet, in input order. A packet
	// that failed (see the error return of ProcessBatch) leaves its
	// Result undefined.
	Results []Result
	// Cost is the modeled data-plane latency of the whole batch: the
	// maximum over lanes of each lane's summed per-packet cost. With one
	// lane (or workers <= 1) that is the plain serial sum.
	Cost time.Duration
}

// prep sizes Results for n packets, retaining each Result's recycled
// buffers across calls.
func (br *BatchResult) prep(n int) {
	for cap(br.Results) < n {
		br.Results = append(br.Results[:cap(br.Results)], Result{})
	}
	br.Results = br.Results[:n]
}

// lane is one modeled ingress pipe: its deterministic random fork and
// counter shard.
type lane struct {
	rng   crypto.RandomSource
	shard uint32
}

// newLanes builds s.workers lanes. Lane RNGs fork deterministically from
// the switch's base source when it supports forking; otherwise the
// (concurrency-safe) base source is shared.
func newLanes(s *Switch) []lane {
	lanes := make([]lane, s.workers)
	for i := range lanes {
		rng := s.rng
		if f, ok := s.rng.(crypto.Forkable); ok {
			rng = f.Fork(uint64(i))
		}
		lanes[i] = lane{rng: rng, shard: uint32(i) % counterShardCount}
	}
	return lanes
}

// Workers reports the configured ingress lane count (1 for a serial
// switch).
func (s *Switch) Workers() int {
	if s.workers < 1 {
		return 1
	}
	return s.workers
}

// Close releases nothing: lanes run on the caller's goroutine, so a
// switch holds no goroutines or other resources. It is kept so callers
// may treat every switch alike; the switch stays usable after Close.
func (s *Switch) Close() {}

// ProcessBatch runs a batch of packets through the pipeline, one Result
// per packet (see BatchResult's buffer-stability contract). Packets
// sharing an ingress port are processed in input order, lane by lane. A
// per-packet failure does not stop the rest of the batch: the first error
// (lowest input index) is returned, the failed packet's Result is
// undefined, and every other packet completes normally.
func (s *Switch) ProcessBatch(pkts []Packet, br *BatchResult) error {
	br.prep(len(pkts))
	br.Cost = 0
	s.stateMu.RLock()
	defer s.stateMu.RUnlock()

	if len(s.lanes) == 0 || len(pkts) <= 1 {
		// Serial: identical to a caller's own ProcessInto loop, including
		// random() draw order from the base source.
		var firstErr error
		for i := range pkts {
			if err := s.processInto(pkts[i], &br.Results[i], s.rng, 0); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			br.Cost += br.Results[i].Cost
		}
		return firstErr
	}

	var firstErr error
	errAt := -1
	n := uint(len(s.lanes))
	for li := range s.lanes {
		ln := &s.lanes[li]
		var cost time.Duration
		for i := range pkts {
			if uint(pkts[i].Port)%n != uint(li) {
				continue
			}
			if err := s.processInto(pkts[i], &br.Results[i], ln.rng, ln.shard); err != nil {
				if errAt < 0 || i < errAt {
					firstErr, errAt = err, i
				}
				continue
			}
			cost += br.Results[i].Cost
		}
		br.Cost = max(br.Cost, cost)
	}
	return firstErr
}
