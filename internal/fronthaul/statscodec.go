package fronthaul

import (
	"errors"
	"fmt"
	"math"

	"quamax/internal/metrics"
)

// StatsRequest polls a live data center's metrics over the fronthaul — the
// frame behind `quamax -top`.
type StatsRequest struct {
	ID uint64
}

// StatsResponse answers a StatsRequest with the server's sample set: every
// series the serving planes export, in canonical order (metrics.Collect).
// Sample.Help does not travel.
type StatsResponse struct {
	ID      uint64
	Err     string // empty on success
	Samples []metrics.Sample
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

// frameStatsResponse serializes a StatsResponse into its frame. A sample set
// that is not in canonical form is an error, not a frame the peer would
// refuse.
func frameStatsResponse(resp *StatsResponse) ([]byte, error) {
	b := appendStr16(appendU64(newFrame(64+48*len(resp.Samples)), resp.ID), resp.Err)
	b, err := appendSamples(b, resp.Samples)
	if err != nil {
		return nil, err
	}
	return sealFrame(b, msgStatsResponse), nil
}

// decodeStatsResponse parses a StatsResponse payload.
func decodeStatsResponse(payload []byte) (*StatsResponse, error) {
	r := &reader{b: payload}
	resp := &StatsResponse{ID: r.u64()}
	resp.Err = string(r.bytes(int(r.u16())))
	var err error
	if resp.Samples, err = readSamples(r); err != nil {
		return nil, err
	}
	if r.off != len(payload) {
		return nil, errors.New("fronthaul: trailing bytes in stats response")
	}
	return resp, nil
}

// The sample-set grammar (see the package comment) is canonical, so
// decode∘encode is the identity on the wire: samples strictly ascending by
// (name, labels), label keys strictly ascending within a sample, a known kind
// byte, histogram buckets sparse with strictly ascending indexes below
// metrics.NumBuckets and no zero counts. Every declared count is bounded by
// the payload bytes that remain before anything is allocated for it.
const (
	minSampleBytes = 2 + 1 + 1 + 8 // empty name, no labels, kind, one f64
	minLabelBytes  = 2 + 2         // empty key, empty value
	bucketBytes    = 1 + 8         // index, count
)

// appendSamples encodes a sample set, refusing one the decoder would.
func appendSamples(b []byte, samples []metrics.Sample) ([]byte, error) {
	b = appendU32(b, uint32(len(samples)))
	for i, s := range samples {
		if i > 0 && samples[i-1].Compare(s) >= 0 {
			return nil, fmt.Errorf("fronthaul: sample %q out of order or duplicated", s.Name)
		}
		if len(s.Name) > math.MaxUint16 || len(s.Labels) > math.MaxUint8 {
			return nil, fmt.Errorf("fronthaul: sample %q out of wire range", s.Name)
		}
		b = append(appendStr16(b, s.Name), byte(len(s.Labels)))
		for j, l := range s.Labels {
			if j > 0 && s.Labels[j-1].Key >= l.Key {
				return nil, fmt.Errorf("fronthaul: sample %q label keys out of order", s.Name)
			}
			if len(l.Key) > math.MaxUint16 || len(l.Value) > math.MaxUint16 {
				return nil, fmt.Errorf("fronthaul: sample %q label out of wire range", s.Name)
			}
			b = appendStr16(appendStr16(b, l.Key), l.Value)
		}
		b = append(b, byte(s.Kind))
		switch s.Kind {
		case metrics.KindCounter, metrics.KindGauge:
			b = appendF64(b, s.Value)
		case metrics.KindHistogram:
			if len(s.Hist.Counts) > metrics.NumBuckets {
				return nil, fmt.Errorf("fronthaul: sample %q histogram exceeds %d buckets", s.Name, metrics.NumBuckets)
			}
			nonzero := 0
			for _, c := range s.Hist.Counts {
				if c != 0 {
					nonzero++
				}
			}
			b = append(b, byte(nonzero))
			for idx, c := range s.Hist.Counts {
				if c != 0 {
					b = appendU64(append(b, byte(idx)), c)
				}
			}
			b = appendF64(appendF64(appendF64(b, s.Hist.Sum), s.Hist.Min), s.Hist.Max)
		default:
			return nil, fmt.Errorf("fronthaul: sample %q has unknown kind %d", s.Name, s.Kind)
		}
	}
	return b, nil
}

// readSamples decodes an appendSamples block, enforcing the canonical form.
func readSamples(r *reader) ([]metrics.Sample, error) {
	n := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if n > (len(r.b)-r.off)/minSampleBytes {
		return nil, errors.New("fronthaul: sample count exceeds payload")
	}
	var samples []metrics.Sample
	for i := 0; i < n; i++ {
		s := metrics.Sample{Name: string(r.bytes(int(r.u16())))}
		nLabels := int(r.u8())
		if nLabels > (len(r.b)-r.off)/minLabelBytes {
			return nil, errors.New("fronthaul: label count exceeds payload")
		}
		for j := 0; j < nLabels; j++ {
			l := metrics.Label{Key: string(r.bytes(int(r.u16())))}
			l.Value = string(r.bytes(int(r.u16())))
			if r.err != nil {
				return nil, r.err
			}
			if j > 0 && s.Labels[j-1].Key >= l.Key {
				return nil, fmt.Errorf("fronthaul: sample %q label keys out of order", s.Name)
			}
			s.Labels = append(s.Labels, l)
		}
		s.Kind = metrics.Kind(r.u8())
		switch s.Kind { // a short payload reads as kind 0 and fails on its value
		case metrics.KindHistogram:
			nb := int(r.u8())
			if nb > metrics.NumBuckets || nb > (len(r.b)-r.off)/bucketBytes {
				return nil, errors.New("fronthaul: histogram bucket count exceeds layout or payload")
			}
			if nb > 0 {
				s.Hist.Counts = make([]uint64, metrics.NumBuckets)
			}
			for prev := -1; nb > 0; nb-- {
				idx, c := int(r.u8()), r.u64()
				if r.err != nil {
					return nil, r.err
				}
				if idx <= prev || idx >= metrics.NumBuckets || c == 0 {
					return nil, fmt.Errorf("fronthaul: histogram bucket %d out of order, out of range or empty", idx)
				}
				s.Hist.Counts[idx] = c
				s.Hist.Count += c
				prev = idx
			}
			s.Hist.Sum, s.Hist.Min, s.Hist.Max = r.f64(), r.f64(), r.f64()
		case metrics.KindCounter, metrics.KindGauge:
			s.Value = r.f64()
		default:
			return nil, fmt.Errorf("fronthaul: unknown sample kind %d", s.Kind)
		}
		if r.err != nil {
			return nil, r.err
		}
		if i > 0 && samples[i-1].Compare(s) >= 0 {
			return nil, fmt.Errorf("fronthaul: sample %q out of order or duplicated", s.Name)
		}
		samples = append(samples, s)
	}
	return samples, nil
}
