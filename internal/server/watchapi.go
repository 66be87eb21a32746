package server

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The /v1/watch wire protocol is newline-delimited JSON over a chunked
// response: one header event (type "state", carrying the database and
// canonical query signature) followed by flip, state, and heartbeat
// events. Resume is state-based: a client that reconnects — or whose
// flips were shed by the bounded per-watch queue — converges from the
// next state or heartbeat event, which always carries the settled
// (version, verdict) pair. See docs/DELTA.md.

// Watch event types.
const (
	WatchEventState     = "state"
	WatchEventFlip      = "flip"
	WatchEventHeartbeat = "heartbeat"
)

// WatchRequest is the body of POST /v1/watch.
type WatchRequest struct {
	// Database names the watched store.
	Database string `json:"database"`
	// Query is the watched query in surface syntax.
	Query string `json:"query"`
	// From is an optional version watermark: the header event is
	// delayed until the watch state has caught up to it, so a client
	// resuming after a disconnect never observes the verdict regress
	// behind a version it already acknowledged.
	From uint64 `json:"from,omitempty"`
}

// WatchEvent is one frame of the /v1/watch stream.
type WatchEvent struct {
	// Type is "state", "flip", or "heartbeat". The first frame is
	// always a state frame carrying Database and Signature; later
	// state frames are resynchronizations after shed flips.
	Type string `json:"type"`
	// Database and Signature identify the watch; header frame only.
	Database  string `json:"database,omitempty"`
	Signature string `json:"signature,omitempty"`
	// Version is the store version the frame reflects.
	Version uint64 `json:"version"`
	// From is the pre-flip verdict; flip frames only.
	From *bool `json:"from,omitempty"`
	// Verdict is the certainty verdict at Version.
	Verdict bool `json:"verdict"`
	// Blocks are the dirty blocks that triggered the re-evaluation
	// behind a flip, as "R(k1,k2)" strings; flip frames only.
	Blocks []string `json:"blocks,omitempty"`
}

// EncodeWatchEvent renders one newline-terminated wire frame.
func EncodeWatchEvent(ev WatchEvent) []byte {
	b, err := json.Marshal(ev)
	if err != nil {
		// WatchEvent has no unmarshalable fields; keep the stream alive.
		b = []byte(`{"type":"heartbeat","version":0,"verdict":false}`)
	}
	return append(b, '\n')
}

// ParseWatchEvent decodes one wire frame strictly: unknown fields,
// trailing data, and unknown event types are errors. Exported for the
// protocol fuzz test and the watch clients (router, chaos tests).
func ParseWatchEvent(line []byte) (WatchEvent, error) {
	var ev WatchEvent
	if err := decodeJSON(bytes.NewReader(line), &ev); err != nil {
		return WatchEvent{}, err
	}
	switch ev.Type {
	case WatchEventState, WatchEventHeartbeat:
		if ev.From != nil || len(ev.Blocks) != 0 {
			return WatchEvent{}, fmt.Errorf("%s frame carries flip-only fields", ev.Type)
		}
	case WatchEventFlip:
		if ev.From == nil {
			return WatchEvent{}, fmt.Errorf("flip frame lacks from")
		}
		if *ev.From == ev.Verdict {
			return WatchEvent{}, fmt.Errorf("flip frame does not flip")
		}
	default:
		return WatchEvent{}, fmt.Errorf("unknown watch event type %q", ev.Type)
	}
	return ev, nil
}
