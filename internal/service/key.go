package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"autopipe/client"
	"autopipe/internal/errdefs"
)

// keyVersion is baked into every cache key so a change to the key document
// shape (or to what the engine computes for a given request) invalidates the
// whole cache instead of silently serving stale plans.
const keyVersion = "autopiped-key/1"

// keyDoc is the canonical content hashed into a job's cache key: the job
// kind plus exactly the request fields that determine its result.
//
// Deliberately absent: parallelism. The engine is deterministic by
// construction — any worker-pool width returns a byte-identical plan — so
// two requests differing only in parallelism share one cache entry. The
// search budget IS present: a truncated search can return a different plan.
// encoding/json marshals struct fields in declaration order, so the encoding
// (and therefore the hash) is canonical for a fixed keyVersion.
type keyDoc struct {
	Version string              `json:"version"`
	Kind    string              `json:"kind"`
	Plan    *client.PlanPayload `json:"plan,omitempty"`
	// RawProfile inlines the profile for simulate/slice kinds.
	RawProfile json.RawMessage `json:"profile,omitempty"`
}

// Key returns the content address of a validated request:
// "sha256:<hex>" over the canonical key document.
func Key(req client.SubmitRequest) (string, error) {
	var buf [512]byte
	data, ok := appendPlanKeyDoc(buf[:0], req)
	if !ok {
		var err error
		if data, err = marshalKeyDoc(req); err != nil {
			return "", err
		}
	}
	sum := sha256.Sum256(data)
	const prefix = "sha256:"
	var out [len(prefix) + 2*sha256.Size]byte
	copy(out[:], prefix)
	hex.Encode(out[len(prefix):], sum[:])
	return string(out[:]), nil
}

// marshalKeyDoc encodes the key document with encoding/json: the definition
// of the canonical bytes, and the path every kind but plan takes.
func marshalKeyDoc(req client.SubmitRequest) ([]byte, error) {
	doc := keyDoc{Version: keyVersion, Kind: req.Kind}
	switch req.Kind {
	case client.KindPlan:
		doc.Plan = req.Plan
	case client.KindSimulate, client.KindSlice:
		raw, err := json.Marshal(req.Profile)
		if err != nil {
			return nil, fmt.Errorf("%w: service: hash profile: %v", errdefs.ErrBadConfig, err)
		}
		doc.RawProfile = raw
	default:
		return nil, fmt.Errorf("%w: service: cannot key unknown kind %q", errdefs.ErrBadConfig, req.Kind)
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("%w: service: hash request: %v", errdefs.ErrBadConfig, err)
	}
	return data, nil
}

// appendPlanKeyDoc appends the key document of a plan request to b: the
// bytes marshalKeyDoc produces, written field by field without reflection.
// It reports false — leaving the request to marshalKeyDoc — for every other
// kind, for a plan request without a payload, and for a payload holding a
// float encoding/json refuses. The field order is the structs' declaration
// order; TestPlanKeyDocMatchesJSON holds the two encodings together.
func appendPlanKeyDoc(b []byte, req client.SubmitRequest) ([]byte, bool) {
	p := req.Plan
	if req.Kind != client.KindPlan || p == nil {
		return b, false
	}
	m, r, d, n := &p.Model, &p.Run, &p.Cluster.Device, &p.Cluster.Network
	for _, x := range [...]float64{d.FlopsPerSec, d.MemBandwidth, d.KernelOverhead, n.Bandwidth, n.Latency} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return b, false
		}
	}
	b = append(b, `{"version":`...)
	b = appendJSONString(b, keyVersion)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, req.Kind)

	b = append(b, `,"plan":{"model":{"name":`...)
	b = appendJSONString(b, m.Name)
	b = appendJSONInt(b, `,"layers":`, m.Layers)
	b = appendJSONInt(b, `,"hidden":`, m.Hidden)
	b = appendJSONInt(b, `,"heads":`, m.Heads)
	b = appendJSONInt(b, `,"ffn_mult":`, m.FFNMult)
	b = appendJSONInt(b, `,"seq_len":`, m.SeqLen)
	b = appendJSONInt(b, `,"vocab":`, m.Vocab)
	b = strconv.AppendBool(append(b, `,"tied_head":`...), m.TiedHead)
	b = strconv.AppendBool(append(b, `,"pooler":`...), m.Pooler)

	b = appendJSONInt(b, `},"run":{"micro_batch":`, r.MicroBatch)
	b = appendJSONInt(b, `,"global_batch":`, r.GlobalBatch)
	b = appendJSONInt(b, `,"num_micro":`, r.NumMicro)
	b = strconv.AppendBool(append(b, `,"checkpoint":`...), r.Checkpoint)

	b = append(b, `},"cluster":{"device":{"name":`...)
	b = appendJSONString(b, d.Name)
	b = appendJSONFloat(append(b, `,"flops_per_sec":`...), d.FlopsPerSec)
	b = appendJSONFloat(append(b, `,"mem_bandwidth":`...), d.MemBandwidth)
	b = strconv.AppendInt(append(b, `,"memory_bytes":`...), d.MemoryBytes, 10)
	b = appendJSONFloat(append(b, `,"kernel_overhead":`...), d.KernelOverhead)
	b = appendJSONFloat(append(b, `},"network":{"bandwidth":`...), n.Bandwidth)
	b = appendJSONFloat(append(b, `,"latency":`...), n.Latency)
	b = appendJSONInt(b, `},"num_gpus":`, p.Cluster.NumGPUs)
	b = append(b, '}')
	if p.Budget != 0 {
		b = appendJSONInt(b, `,"budget":`, p.Budget)
	}
	return append(b, "}}"...), true
}

// appendJSONInt appends a field prefix and an integer value.
func appendJSONInt(b []byte, prefix string, v int) []byte {
	return strconv.AppendInt(append(b, prefix...), int64(v), 10)
}

// appendJSONFloat appends a finite float as encoding/json does: shortest
// round-trip digits, 'f' notation unless the magnitude is below 1e-6 or at
// least 1e21, and a two-digit negative exponent trimmed to one ("1e-07"
// becomes "1e-7").
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a JSON string. Printable ASCII other than
// the quote, the backslash, and the HTML-significant <, > and & encodes as
// itself; any other string goes through encoding/json's own quoting.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
