package metrics

import (
	"cmp"
	"slices"
	"strings"
)

// Kind says how a Sample's value reads.
type Kind uint8

// The sample kinds. The numeric values ride the stats frame, so they are
// wire format: never renumber.
const (
	// KindCounter is a monotone total in Sample.Value.
	KindCounter Kind = iota
	// KindGauge is a point-in-time level in Sample.Value.
	KindGauge
	// KindHistogram is a distribution in Sample.Hist.
	KindHistogram
)

// String returns the Prometheus TYPE name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Label is one key=value pair qualifying a Sample.
type Label struct {
	Key, Value string
}

// Sample is one exported series at one instant: the unit every serving plane
// reports in and every exporter (the fronthaul stats frame, the Prometheus
// text page, `quamax -top`) consumes. A plane's snapshot type turns itself
// into samples in one method beside its fields; nothing downstream knows the
// plane.
//
// Naming carries the unit, Prometheus style: a name ends in _total for a
// counter, preceded by _micros, _microusd or _millij when the quantity has
// that unit; `quamax -top` formats values from those suffixes.
type Sample struct {
	// Name is the series family, e.g. "quamax_pool_submitted_total".
	Name string
	// Labels qualify the series within its family, sorted by key, keys
	// distinct.
	Labels []Label
	// Kind selects Value (counter, gauge) or Hist (histogram).
	Kind Kind
	// Value is the counter total or gauge level.
	Value float64
	// Hist is the distribution of a KindHistogram sample.
	Hist Hist
	// Help is the one-line description the Prometheus page prints. It stays
	// in the serving process: the stats frame does not carry it.
	Help string
}

func newSample(kind Kind, name, help string, labels []Label) Sample {
	s := Sample{Name: name, Kind: kind, Help: help}
	if len(labels) > 0 {
		s.Labels = slices.Clone(labels)
		slices.SortFunc(s.Labels, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	}
	return s
}

// Counter returns a KindCounter sample; labels may come in any order.
func Counter(name, help string, v float64, labels ...Label) Sample {
	s := newSample(KindCounter, name, help, labels)
	s.Value = v
	return s
}

// Gauge returns a KindGauge sample; labels may come in any order.
func Gauge(name, help string, v float64, labels ...Label) Sample {
	s := newSample(KindGauge, name, help, labels)
	s.Value = v
	return s
}

// Histogram returns a KindHistogram sample; labels may come in any order.
func Histogram(name, help string, h Hist, labels ...Label) Sample {
	s := newSample(KindHistogram, name, help, labels)
	s.Hist = h
	return s
}

// Label returns the value of the label named key ("" and false when the
// sample does not carry it).
func (s Sample) Label(key string) (string, bool) {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value, true
		}
	}
	return "", false
}

// Compare orders samples by name, then by their label lists pair by pair —
// the canonical order of a sample set.
func (s Sample) Compare(o Sample) int {
	return cmp.Or(strings.Compare(s.Name, o.Name), slices.CompareFunc(s.Labels, o.Labels, func(a, b Label) int {
		return cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.Value, b.Value))
	}))
}

// Collect concatenates what the planes produced into one set in canonical
// order, the form every exporter takes. Two samples with the same name and
// labels are a producer bug; the stats-frame encoder refuses such a set.
func Collect(sets ...[]Sample) []Sample {
	out := slices.Concat(sets...)
	slices.SortStableFunc(out, Sample.Compare)
	return out
}
