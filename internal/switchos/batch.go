package switchos

import (
	"fmt"
	"time"

	"p4auth/internal/pisa"
)

// Batch packet paths: one agent transaction carries a whole window of
// packets through the pipeline via pisa.ProcessBatch, and — because each
// packet of a batch owns its Result buffers for the batch's lifetime —
// emission bytes flow upward into NetOut/PacketIns without the per-packet
// arena copy the single-shot path pays. On a laned switch
// (pisa.WithWorkers > 1), packets on distinct ingress ports are modeled
// as running in parallel pipes: the batch's pipeline cost is the slowest
// lane, not the sum.

// batchMeta carries one pending packet's idempotency-cache bookkeeping
// from the downward pass to the result walk.
type batchMeta struct {
	orig      []byte // pre-hook request bytes (what a retransmit resends)
	seq       uint32
	cacheable bool
}

// NetworkPacketBatch injects a batch of packets arriving on network ports
// directly into the pipeline (no software stack on the way in). Per-port
// arrival order is preserved; the pipeline cost is the batch's modeled
// cost (max over ingress lanes on a worker-backed switch). PacketIns that
// surface share one amortized agent dispatch, like PacketOutBatch.
func (h *Host) NetworkPacketBatch(pkts []pisa.Packet) (IOResult, error) {
	var io IOResult
	err := h.NetworkPacketBatchInto(pkts, &io)
	return io, err
}

// NetworkPacketBatchInto is NetworkPacketBatch with a caller-owned,
// reusable result. NetOut and PacketIns reference the pipeline's batch
// buffers directly (no copy); they are valid until the next *Into call on
// the same result.
func (h *Host) NetworkPacketBatchInto(pkts []pisa.Packet, io *IOResult) error {
	io.reset()
	if h.down.Load() || len(pkts) == 0 {
		return nil // crashed: the wire ends in a dead port
	}
	if err := h.SW.ProcessBatch(pkts, &io.bres); err != nil {
		return fmt.Errorf("switchos: %s: pipeline: %w", h.Name, err)
	}
	io.Cost += io.bres.Cost
	for i := range io.bres.Results {
		h.emitResult(&io.bres.Results[i], io, 0, false)
	}
	if len(io.PacketIns) > 0 {
		io.Cost += h.Costs.PacketIOBase
	}
	return nil
}

// packetOutBatchPipelined is the PacketOutBatch transport over
// ProcessBatch, used on worker-backed switches. Cache and hook semantics
// match the serial window path with two deliberate differences, both
// inherent to batching:
//
//   - PacketIns of cache hits surface before PacketIns of packets that
//     went through the pipeline (responses were already reorderable —
//     callers match by seqNum, not position).
//   - The idempotency cache is consulted for the whole window up front
//     and stored after the pipeline pass, so a byte-identical duplicate
//     WITHIN one window reaches the pipeline instead of hitting the
//     cache. Controllers never put duplicate sequence numbers in one
//     window, so this distinction is unobservable in the protocol.
func (h *Host) packetOutBatchPipelined(datas [][]byte, io *IOResult) error {
	ao := h.obsv.Load()
	// Downward pass, in window order: per-packet agent byte cost, cache
	// lookup, hooks, and driver/PCIe charge for everything that will
	// enter the pipeline.
	for _, data := range datas {
		io.Cost += time.Duration(len(data)) * h.Costs.PerByte
		if ao != nil {
			ao.packetOuts.Inc()
		}
		seq, cacheable := h.cacheKey(data)
		if cacheable {
			if pins, hit := h.cache.lookup(seq, data); hit {
				if ao != nil {
					ao.cacheHits.Inc()
				}
				io.PacketIns = append(io.PacketIns, pins...)
				for _, p := range pins {
					io.Cost += time.Duration(len(p)) * h.Costs.PerByte
				}
				continue
			}
		}
		orig := data
		dropped := false
		for _, b := range []Boundary{BoundaryAgentSDK, BoundarySDKDriver} {
			if hk := h.hooks[b]; hk != nil && hk.OnPacketOut != nil {
				data = hk.OnPacketOut(data)
				if data == nil {
					dropped = true // silently dropped by the backdoor
					break
				}
			}
		}
		if dropped {
			continue
		}
		io.Cost += h.Costs.DriverBase + h.Costs.PCIe
		io.bpkts = append(io.bpkts, pisa.Packet{Data: data, Port: pisa.CPUPort})
		io.bmeta = append(io.bmeta, batchMeta{orig: orig, seq: seq, cacheable: cacheable})
	}

	if len(io.bpkts) > 0 {
		if err := h.SW.ProcessBatch(io.bpkts, &io.bres); err != nil {
			return fmt.Errorf("switchos: %s: pipeline: %w", h.Name, err)
		}
		io.Cost += io.bres.Cost
		// Result walk, in window order: surface each pending packet's
		// emissions zero-copy and remember its answer for retransmits.
		for i := range io.bpkts {
			pinsBefore := len(io.PacketIns)
			h.emitResult(&io.bres.Results[i], io, 0, false)
			m := &io.bmeta[i]
			if m.cacheable && h.cacheWorthy(m.orig, io.PacketIns[pinsBefore:]) {
				// The store deep-copies, so caching zero-copy references
				// is safe past this batch's lifetime.
				h.cache.store(m.seq, m.orig, io.PacketIns[pinsBefore:])
			}
		}
	}
	if len(io.PacketIns) > 0 {
		io.Cost += h.Costs.PacketIOBase
	}
	return nil
}
