package fronthaul

import (
	"errors"
	"fmt"

	"quamax/internal/metrics"
	"quamax/internal/telemetry"
)

// StatsRequest polls a live pool's counters and telemetry over the fronthaul
// (protocol v7) — the frame behind `quamax -top`.
type StatsRequest struct {
	ID uint64
}

// StatsResponse answers a StatsRequest with the pool counter snapshot and,
// when the server runs a telemetry recorder, the full telemetry snapshot
// (stage latency histograms, deadline slack, per-class anneal quality).
type StatsResponse struct {
	ID  uint64
	Err string // empty on success
	// UptimeMicros is the server scheduler's lifetime at snapshot time.
	UptimeMicros float64
	// Pool is the scheduler counter snapshot (zero value when the server's
	// dispatcher exports no stats).
	Pool metrics.PoolStats
	// Telemetry is the recorder snapshot; nil when the server runs without
	// a telemetry plane.
	Telemetry *telemetry.Snapshot
	// Shards is the per-shard PoolStats breakdown (protocol v8), shard index
	// order; nil when the server runs a single pool. Pool remains the merged
	// aggregate, so v7 consumers lose only the breakdown, not the totals.
	Shards []metrics.PoolStats
	// Health is the solver-health plane snapshot (protocol v9): per-backend
	// drift verdicts and per-shard SLO burn rates. Nil (or Empty) when the
	// server runs without a health plane; its flag bit rides the frame iff
	// the snapshot carries data, so v8 consumers lose only the health view.
	Health *metrics.HealthStats
}

// frameStatsRequest serializes a StatsRequest into its frame.
func frameStatsRequest(req *StatsRequest) []byte {
	return sealFrame(appendU64(newFrame(8), req.ID), msgStatsRequest)
}

// decodeStatsRequest parses a StatsRequest payload.
func decodeStatsRequest(payload []byte) (*StatsRequest, error) {
	r := &reader{b: payload}
	req := &StatsRequest{ID: r.u64()}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, errors.New("fronthaul: trailing bytes in stats request")
	}
	return req, nil
}

// appendHist encodes a telemetry histogram sparsely: the number of nonzero
// buckets, then (bucket index, count) pairs in increasing index order,
// then the running sum and extrema. An empty histogram is one zero byte plus
// the three float64 fields.
func appendHist(b []byte, h telemetry.Hist) []byte {
	nonzero := 0
	for _, c := range h.Counts {
		if c != 0 {
			nonzero++
		}
	}
	b = append(b, byte(nonzero))
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		b = append(b, byte(i))
		b = appendU64(b, c)
	}
	b = appendF64(b, h.Sum)
	b = appendF64(b, h.Min)
	b = appendF64(b, h.Max)
	return b
}

// readHist decodes an appendHist payload, validating the canonical form:
// strictly increasing bucket indexes below telemetry.NumBuckets and no
// zero-count entries (so decode∘encode is the identity on the wire).
func readHist(r *reader) (telemetry.Hist, error) {
	var h telemetry.Hist
	nb := r.bytes(1)
	if r.err != nil {
		return h, r.err
	}
	n := int(nb[0])
	if n > telemetry.NumBuckets {
		return h, fmt.Errorf("fronthaul: histogram with %d buckets exceeds %d", n, telemetry.NumBuckets)
	}
	if n > 0 {
		h.Counts = make([]uint64, telemetry.NumBuckets)
		prev := -1
		for i := 0; i < n; i++ {
			idxB := r.bytes(1)
			count := r.u64()
			if r.err != nil {
				return h, r.err
			}
			idx := int(idxB[0])
			if idx <= prev || idx >= telemetry.NumBuckets {
				return h, fmt.Errorf("fronthaul: histogram bucket index %d out of order", idx)
			}
			if count == 0 {
				return h, errors.New("fronthaul: zero-count histogram bucket")
			}
			prev = idx
			h.Counts[idx] = count
			h.Count += count
		}
	}
	h.Sum = r.f64()
	h.Min = r.f64()
	h.Max = r.f64()
	if r.err != nil {
		return telemetry.Hist{}, r.err
	}
	return h, nil
}

// statsRespTelemetry is the flags bit marking a telemetry block;
// statsRespShards the per-shard PoolStats breakdown block (protocol v8);
// statsRespEconomics the trailing spend/energy block (one f64 pair per
// backend entry, aggregate then shards — PR 9's fleet-economics counters);
// statsRespHealth the solver-health block (protocol v9: per-backend drift
// verdicts, per-shard SLO burn rates). Each flag rides only when its block
// carries data, so older decodes stay byte-compatible.
const (
	statsRespTelemetry = 1 << 0
	statsRespShards    = 1 << 1
	statsRespEconomics = 1 << 2
	statsRespHealth    = 1 << 3
)

// appendPoolStats encodes one PoolStats block (the aggregate and each
// per-shard entry share this layout).
func appendPoolStats(b []byte, p *metrics.PoolStats) ([]byte, error) {
	if p.QueueDepth < 0 || len(p.Backends) > 0xffff {
		return nil, errors.New("fronthaul: pool stats out of wire range")
	}
	b = appendU32(b, uint32(p.QueueDepth))
	for _, v := range []uint64{
		p.Submitted, p.Completed, p.Failed, p.FallbackDispatches,
		p.PlannerClassical, p.DeadlineMisses, p.BatchRuns, p.BatchedProblems,
		p.SoftSolved, p.LLRSaturations,
	} {
		b = appendU64(b, v)
	}
	b = appendF64(b, p.SlotOccupancy)
	b = appendU64(b, p.ChannelCache.Hits)
	b = appendU64(b, p.ChannelCache.Misses)
	b = appendU64(b, p.ChannelCache.Evictions)
	b = appendU16(b, uint16(len(p.Backends)))
	for _, be := range p.Backends {
		if len(be.Name) > 0xffff {
			return nil, errors.New("fronthaul: oversized backend name")
		}
		b = appendU16(b, uint16(len(be.Name)))
		b = append(b, be.Name...)
		b = appendU64(b, be.Solved)
		b = appendU64(b, be.Errors)
		b = appendF64(b, be.BusyMicros)
		b = appendF64(b, be.Utilization)
	}
	return b, nil
}

// readPoolStats decodes one appendPoolStats block.
func readPoolStats(r *reader, payload []byte, p *metrics.PoolStats) error {
	p.QueueDepth = int(r.u32())
	for _, dst := range []*uint64{
		&p.Submitted, &p.Completed, &p.Failed, &p.FallbackDispatches,
		&p.PlannerClassical, &p.DeadlineMisses, &p.BatchRuns, &p.BatchedProblems,
		&p.SoftSolved, &p.LLRSaturations,
	} {
		*dst = r.u64()
	}
	p.SlotOccupancy = r.f64()
	p.ChannelCache.Hits = r.u64()
	p.ChannelCache.Misses = r.u64()
	p.ChannelCache.Evictions = r.u64()
	nBackends := int(r.u16())
	if r.err != nil {
		return r.err
	}
	// Each backend entry is at least 34 bytes; bound the allocation by what
	// the payload can actually hold before trusting the declared count.
	if nBackends > (len(payload)-r.off)/34 {
		return errors.New("fronthaul: backend count exceeds payload")
	}
	for i := 0; i < nBackends; i++ {
		nameLen := int(r.u16())
		if r.err == nil && nameLen > len(payload)-r.off {
			return errShort
		}
		be := metrics.BackendStats{Name: string(r.bytes(nameLen))}
		be.Solved = r.u64()
		be.Errors = r.u64()
		be.BusyMicros = r.f64()
		be.Utilization = r.f64()
		if r.err != nil {
			return r.err
		}
		p.Backends = append(p.Backends, be)
	}
	return r.err
}

// frameStatsResponse serializes a StatsResponse into its frame.
func frameStatsResponse(resp *StatsResponse) ([]byte, error) {
	if len(resp.Err) > 0xffff {
		return nil, errors.New("fronthaul: oversized error string")
	}
	b := appendU64(newFrame(256), resp.ID)
	b = appendU16(b, uint16(len(resp.Err)))
	b = append(b, resp.Err...)
	b = appendF64(b, resp.UptimeMicros)

	var err error
	if b, err = appendPoolStats(b, &resp.Pool); err != nil {
		return nil, err
	}

	var flags byte
	if resp.Telemetry != nil {
		flags |= statsRespTelemetry
	}
	if len(resp.Shards) > 0 {
		flags |= statsRespShards
	}
	econ := economicsPresent(resp)
	if econ {
		flags |= statsRespEconomics
	}
	if !resp.Health.Empty() {
		flags |= statsRespHealth
	}
	b = append(b, flags)
	if sn := resp.Telemetry; sn != nil {
		b = appendF64(b, sn.UptimeMicros)
		b = appendU64(b, sn.Finished)
		b = appendU64(b, sn.Failed)
		b = appendU64(b, sn.CompileHits)
		b = appendU64(b, sn.CompileMisses)
		b = append(b, byte(telemetry.NumStages))
		for i := range sn.Stages {
			b = appendHist(b, sn.Stages[i])
		}
		b = appendHist(b, sn.Wire)
		b = appendHist(b, sn.SlackMet)
		b = appendHist(b, sn.SlackMissed)
		classes := telemetry.SortedClasses(sn)
		if len(classes) > 0xffff {
			return nil, errors.New("fronthaul: oversized quality class set")
		}
		b = appendU16(b, uint16(len(classes)))
		for _, c := range classes {
			if len(c) > 0xffff {
				return nil, errors.New("fronthaul: oversized quality class name")
			}
			q := sn.Quality[c]
			b = appendU16(b, uint16(len(c)))
			b = append(b, c...)
			b = appendU64(b, q.Solves)
			b = appendU64(b, q.Reads)
			b = appendU64(b, q.ChainBreaks)
			b = appendU64(b, q.LLRBits)
			b = appendU64(b, q.LLRSaturated)
			b = appendHist(b, q.BestEnergy)
		}
	}
	if len(resp.Shards) > 0 {
		if len(resp.Shards) > 0xffff {
			return nil, errors.New("fronthaul: oversized shard set")
		}
		b = appendU16(b, uint16(len(resp.Shards)))
		for i := range resp.Shards {
			if b, err = appendPoolStats(b, &resp.Shards[i]); err != nil {
				return nil, err
			}
		}
	}
	if econ {
		b = appendEconomics(b, &resp.Pool)
		for i := range resp.Shards {
			b = appendEconomics(b, &resp.Shards[i])
		}
	}
	if !resp.Health.Empty() {
		if b, err = appendHealth(b, resp.Health); err != nil {
			return nil, err
		}
	}
	return sealFrame(b, msgStatsResponse), nil
}

// appendHealth encodes the v9 solver-health block: per-backend drift entries
// in canonical (name-sorted) order, then per-shard burn entries in index
// order.
func appendHealth(b []byte, h *metrics.HealthStats) ([]byte, error) {
	if len(h.Backends) > 0xffff || len(h.Shards) > 0xffff {
		return nil, errors.New("fronthaul: health stats out of wire range")
	}
	backends := append([]metrics.BackendHealth(nil), h.Backends...)
	(&metrics.HealthStats{Backends: backends}).SortBackends()
	b = appendU16(b, uint16(len(backends)))
	for _, be := range backends {
		if len(be.Name) > 0xffff {
			return nil, errors.New("fronthaul: oversized backend name")
		}
		if be.State > metrics.HealthQuarantined {
			return nil, fmt.Errorf("fronthaul: unknown health state %d", be.State)
		}
		b = appendU16(b, uint16(len(be.Name)))
		b = append(b, be.Name...)
		b = append(b, byte(be.State))
		b = appendF64(b, be.Score)
		b = appendU64(b, be.Observations)
		b = appendF64(b, be.ChainBreakEWMA)
		b = appendF64(b, be.EnergyEWMA)
		b = appendF64(b, be.FailureEWMA)
		b = appendF64(b, be.ReadsPerSolve)
		b = appendU64(b, be.CanaryPass)
		b = appendU64(b, be.CanaryFail)
	}
	b = appendU16(b, uint16(len(h.Shards)))
	for _, s := range h.Shards {
		b = appendF64(b, s.FastMissRate)
		b = appendF64(b, s.SlowMissRate)
		b = appendF64(b, s.FastBERRate)
		b = appendF64(b, s.SlowBERRate)
		b = appendU64(b, s.Samples)
		alert := byte(0)
		if s.Alerting {
			alert = 1
		}
		b = append(b, alert)
		b = appendU64(b, s.Sheds)
		b = appendF64(b, s.MissEWMA)
	}
	return b, nil
}

// readHealth decodes the v9 solver-health block, enforcing the canonical
// form: strictly name-sorted backend entries, known state bytes, a boolean
// alerting byte, and at least one entry overall (a flagged-but-empty block
// would re-encode without the flag, breaking decode∘encode identity).
func readHealth(r *reader, payload []byte) (*metrics.HealthStats, error) {
	h := &metrics.HealthStats{}
	nBackends := int(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	// Each backend entry is at least 67 bytes (2 name len + 1 state + 8
	// score + 8 observations + 4·8 EWMAs + 2·8 canary counts).
	if nBackends > (len(payload)-r.off)/67 {
		return nil, errors.New("fronthaul: health backend count exceeds payload")
	}
	prevName := ""
	for i := 0; i < nBackends; i++ {
		nameLen := int(r.u16())
		if r.err == nil && nameLen > len(payload)-r.off {
			return nil, errShort
		}
		be := metrics.BackendHealth{Name: string(r.bytes(nameLen))}
		stateB := r.bytes(1)
		if r.err != nil {
			return nil, r.err
		}
		if stateB[0] > byte(metrics.HealthQuarantined) {
			return nil, fmt.Errorf("fronthaul: unknown health state %d", stateB[0])
		}
		be.State = metrics.HealthState(stateB[0])
		be.Score = r.f64()
		be.Observations = r.u64()
		be.ChainBreakEWMA = r.f64()
		be.EnergyEWMA = r.f64()
		be.FailureEWMA = r.f64()
		be.ReadsPerSolve = r.f64()
		be.CanaryPass = r.u64()
		be.CanaryFail = r.u64()
		if r.err != nil {
			return nil, r.err
		}
		if i > 0 && be.Name <= prevName {
			return nil, fmt.Errorf("fronthaul: health backend %q out of order", be.Name)
		}
		prevName = be.Name
		h.Backends = append(h.Backends, be)
	}
	nShards := int(r.u16())
	if r.err != nil {
		return nil, r.err
	}
	// Each shard entry is exactly 57 bytes (4·8 rates + 8 samples + 1
	// alerting + 8 sheds + 8 miss EWMA).
	if nShards > (len(payload)-r.off)/57 {
		return nil, errors.New("fronthaul: health shard count exceeds payload")
	}
	for i := 0; i < nShards; i++ {
		var s metrics.ShardBurn
		s.FastMissRate = r.f64()
		s.SlowMissRate = r.f64()
		s.FastBERRate = r.f64()
		s.SlowBERRate = r.f64()
		s.Samples = r.u64()
		alertB := r.bytes(1)
		if r.err != nil {
			return nil, r.err
		}
		if alertB[0] > 1 {
			return nil, fmt.Errorf("fronthaul: non-boolean health alert byte %d", alertB[0])
		}
		s.Alerting = alertB[0] == 1
		s.Sheds = r.u64()
		s.MissEWMA = r.f64()
		if r.err != nil {
			return nil, r.err
		}
		h.Shards = append(h.Shards, s)
	}
	if h.Empty() {
		return nil, errors.New("fronthaul: health flag set with empty block")
	}
	return h, nil
}

// economicsPresent reports whether any backend entry carries nonzero spend
// or energy — the condition under which the economics block (and its flag
// bit) rides the frame. Tying the bit to the data keeps the wire form
// canonical: an all-zero response re-encodes without the block, byte-equal.
func economicsPresent(resp *StatsResponse) bool {
	pools := make([]*metrics.PoolStats, 0, len(resp.Shards)+1)
	pools = append(pools, &resp.Pool)
	for i := range resp.Shards {
		pools = append(pools, &resp.Shards[i])
	}
	for _, p := range pools {
		for _, be := range p.Backends {
			if be.SpendMicroUSD != 0 || be.EnergyMilliJ != 0 {
				return true
			}
		}
	}
	return false
}

// appendEconomics encodes one pool's per-backend (spend, energy) pairs. The
// pair count is implied by the pool block's own backend count, decoded
// earlier in the frame, so the block carries no redundant length.
func appendEconomics(b []byte, p *metrics.PoolStats) []byte {
	for _, be := range p.Backends {
		b = appendF64(b, be.SpendMicroUSD)
		b = appendF64(b, be.EnergyMilliJ)
	}
	return b
}

// decodeStatsResponse parses a StatsResponse payload.
func decodeStatsResponse(payload []byte) (*StatsResponse, error) {
	r := &reader{b: payload}
	resp := &StatsResponse{ID: r.u64()}
	errLen := int(r.u16())
	if r.err == nil && errLen > len(payload)-r.off {
		return nil, errShort
	}
	resp.Err = string(r.bytes(errLen))
	resp.UptimeMicros = r.f64()

	if err := readPoolStats(r, payload, &resp.Pool); err != nil {
		return nil, err
	}

	flagsB := r.bytes(1)
	if r.err != nil {
		return nil, r.err
	}
	flags := flagsB[0]
	if flags&^byte(statsRespTelemetry|statsRespShards|statsRespEconomics|statsRespHealth) != 0 {
		return nil, fmt.Errorf("fronthaul: unknown stats flags %#x", flags)
	}
	if flags&statsRespTelemetry != 0 {
		sn := &telemetry.Snapshot{}
		sn.UptimeMicros = r.f64()
		sn.Finished = r.u64()
		sn.Failed = r.u64()
		sn.CompileHits = r.u64()
		sn.CompileMisses = r.u64()
		nStages := r.bytes(1)
		if r.err != nil {
			return nil, r.err
		}
		if int(nStages[0]) != telemetry.NumStages {
			return nil, fmt.Errorf("fronthaul: stats frame with %d stages, want %d", nStages[0], telemetry.NumStages)
		}
		var err error
		for i := range sn.Stages {
			if sn.Stages[i], err = readHist(r); err != nil {
				return nil, err
			}
		}
		if sn.Wire, err = readHist(r); err != nil {
			return nil, err
		}
		if sn.SlackMet, err = readHist(r); err != nil {
			return nil, err
		}
		if sn.SlackMissed, err = readHist(r); err != nil {
			return nil, err
		}
		sn.Traces = sn.Finished + sn.Failed
		nClasses := int(r.u16())
		if r.err != nil {
			return nil, r.err
		}
		// Each class entry is at least 67 bytes (2 + 5·8 + empty hist).
		if nClasses > (len(payload)-r.off)/67 {
			return nil, errors.New("fronthaul: quality class count exceeds payload")
		}
		if nClasses > 0 {
			sn.Quality = make(map[string]telemetry.QualityStats, nClasses)
		}
		prevName := ""
		for i := 0; i < nClasses; i++ {
			nameLen := int(r.u16())
			if r.err == nil && nameLen > len(payload)-r.off {
				return nil, errShort
			}
			name := string(r.bytes(nameLen))
			var q telemetry.QualityStats
			q.Solves = r.u64()
			q.Reads = r.u64()
			q.ChainBreaks = r.u64()
			q.LLRBits = r.u64()
			q.LLRSaturated = r.u64()
			if q.BestEnergy, err = readHist(r); err != nil {
				return nil, err
			}
			if r.err != nil {
				return nil, r.err
			}
			// Classes ride sorted (SortedClasses on encode); enforcing the
			// order here makes the wire form canonical, so decode∘encode is
			// the identity — the invariant the fuzzer holds the codec to.
			if i > 0 && name <= prevName {
				return nil, fmt.Errorf("fronthaul: quality class %q out of order", name)
			}
			prevName = name
			sn.Quality[name] = q
		}
		resp.Telemetry = sn
	}
	if flags&statsRespShards != 0 {
		nShards := int(r.u16())
		if r.err != nil {
			return nil, r.err
		}
		// A set flag with zero shards would re-encode without the flag,
		// breaking the canonical decode∘encode identity — reject it. Each
		// shard block is at least 118 bytes (4 + 13·8 + empty backend set).
		if nShards == 0 {
			return nil, errors.New("fronthaul: shards flag set with zero shards")
		}
		if nShards > (len(payload)-r.off)/118 {
			return nil, errors.New("fronthaul: shard count exceeds payload")
		}
		resp.Shards = make([]metrics.PoolStats, nShards)
		for i := range resp.Shards {
			if err := readPoolStats(r, payload, &resp.Shards[i]); err != nil {
				return nil, err
			}
		}
	}
	if flags&statsRespEconomics != 0 {
		readEcon := func(p *metrics.PoolStats) {
			for i := range p.Backends {
				p.Backends[i].SpendMicroUSD = r.f64()
				p.Backends[i].EnergyMilliJ = r.f64()
			}
		}
		readEcon(&resp.Pool)
		for i := range resp.Shards {
			readEcon(&resp.Shards[i])
		}
		if r.err != nil {
			return nil, r.err
		}
		// A set flag over all-zero counters would re-encode without the
		// block, breaking the canonical decode∘encode identity — reject it
		// (the shards-flag rule, applied to economics).
		if !economicsPresent(resp) {
			return nil, errors.New("fronthaul: economics flag set with zero counters")
		}
	}
	if flags&statsRespHealth != 0 {
		h, err := readHealth(r, payload)
		if err != nil {
			return nil, err
		}
		resp.Health = h
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, errors.New("fronthaul: trailing bytes in stats response")
	}
	return resp, nil
}
