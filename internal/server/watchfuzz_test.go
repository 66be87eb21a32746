package server

import (
	"bytes"
	"testing"
)

// FuzzWatchProtocol fuzzes the /v1/watch wire codec: ParseWatchEvent
// must never panic on arbitrary bytes, and every frame it accepts must
// survive an encode/parse round trip unchanged — the property the
// stream consumers (router merge, chaos resume test) rely on when they
// treat a parsed frame as the frame that was sent.
func FuzzWatchProtocol(f *testing.F) {
	f.Add([]byte(`{"type":"state","database":"m","signature":"R('k0'|'v0')","version":3,"verdict":true}`))
	f.Add([]byte(`{"type":"state","version":9,"verdict":false}`))
	f.Add([]byte(`{"type":"flip","version":4,"from":false,"verdict":true,"blocks":["R(k0)"]}`))
	f.Add([]byte(`{"type":"flip","version":4,"from":true,"verdict":false}`))
	f.Add([]byte(`{"type":"heartbeat","version":7,"verdict":true}`))
	f.Add([]byte(`{"type":"flip","version":4,"verdict":true}`))
	f.Add([]byte(`{"type":"flip","version":4,"from":true,"verdict":true}`))
	f.Add([]byte(`{"type":"heartbeat","version":7,"verdict":true,"blocks":["R(k0)"]}`))
	f.Add([]byte(`{"type":"nonsense","version":1,"verdict":true}`))
	f.Add([]byte(`{"type":"state","version":1,"verdict":true}{"trailing":1}`))
	f.Add([]byte(`{"type":"state","version":1,"verdict":true,"unknown":[]}`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))

	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := ParseWatchEvent(line)
		if err != nil {
			return
		}
		// Round trip: re-encoding an accepted frame and parsing it back
		// must reproduce the frame exactly.
		wire := EncodeWatchEvent(ev)
		ev2, err := ParseWatchEvent(bytes.TrimSuffix(wire, []byte("\n")))
		if err != nil {
			t.Fatalf("re-parse of encoded frame failed: %v\nframe: %+v\nwire: %s", err, ev, wire)
		}
		if ev.Type != ev2.Type || ev.Database != ev2.Database || ev.Signature != ev2.Signature ||
			ev.Version != ev2.Version || ev.Verdict != ev2.Verdict {
			t.Fatalf("round trip changed the frame: %+v -> %+v", ev, ev2)
		}
		if (ev.From == nil) != (ev2.From == nil) || (ev.From != nil && *ev.From != *ev2.From) {
			t.Fatalf("round trip changed from: %+v -> %+v", ev, ev2)
		}
		if len(ev.Blocks) != len(ev2.Blocks) {
			t.Fatalf("round trip changed blocks: %+v -> %+v", ev, ev2)
		}
		for i := range ev.Blocks {
			if ev.Blocks[i] != ev2.Blocks[i] {
				t.Fatalf("round trip changed blocks: %+v -> %+v", ev, ev2)
			}
		}
	})
}
