package main

import (
	"time"

	"repro/internal/ids"
	"repro/internal/wire"
)

// wireIters is how many times each codec step runs on a request shape.
const wireIters = 20000

// wireMetrics times the wire codec on the request shape the named
// workload sends most: marshal (Go struct → value), encode (value →
// bytes), decode and unmarshal back, each in ns per request.
func wireMetrics(workload string) map[string]metric {
	switch workload {
	case "rpc-tcp":
		return wireBench(echoReq{Seq: 1 << 20, Payload: make([]byte, 64)})
	case "dgc-churn":
		return wireBench(linkReq{Seq: 1 << 20, Next: wire.Ref(ids.ActivityID{Node: 3, Seq: 1 << 12})})
	default:
		return wireBench(echoReq{Seq: 1 << 20, Payload: make([]byte, 16)})
	}
}

func wireBench[T any](req T) map[string]metric {
	per := func(t0 time.Time) float64 { return float64(time.Since(t0)) / wireIters }
	var v wire.Value
	t0 := time.Now()
	for i := 0; i < wireIters; i++ {
		v, _ = wire.Marshal(req) // the shapes are known to marshal
	}
	marshal := per(t0)
	buf := wire.Encode(nil, v)
	t0 = time.Now()
	for i := 0; i < wireIters; i++ {
		buf = wire.Encode(buf[:0], v)
	}
	encode := per(t0)
	var d wire.Decoder
	t0 = time.Now()
	for i := 0; i < wireIters; i++ {
		v, _ = d.Decode(buf)
	}
	decode := per(t0)
	var out T
	t0 = time.Now()
	for i := 0; i < wireIters; i++ {
		_ = wire.Unmarshal(v, &out)
	}
	return map[string]metric{
		"wire.marshal_ns":   {marshal, "ns"},
		"wire.encode_ns":    {encode, "ns"},
		"wire.decode_ns":    {decode, "ns"},
		"wire.unmarshal_ns": {per(t0), "ns"},
		"wire.req_bytes":    {float64(len(buf)), "B"},
	}
}
