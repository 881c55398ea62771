package journal

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/cluster/store"
)

// Event is one journal entry: a monotonic sequence number, a kind from
// the registry in events.go, and an opaque JSON payload.
type Event struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// eventBody is the payload inside the SNP1 frame; the sequence number
// rides the frame's generation field, so it is CRC-protected without
// being duplicated in the JSON.
type eventBody struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Stats summarizes one replay pass over a journal byte stream.
type Stats struct {
	// Events is the number of records accepted.
	Events int `json:"events"`
	// Corrupt counts records rejected by framing or payload validation.
	Corrupt int `json:"corrupt"`
	// Stale counts well-formed records whose sequence number did not
	// advance past the last accepted one (duplicated or reordered
	// bytes, e.g. from a replayed torn region).
	Stale int `json:"stale"`
	// Resyncs counts NextMagic skips past damaged regions.
	Resyncs int `json:"resyncs"`
	// Bytes is the total input length.
	Bytes int `json:"bytes"`
}

// EncodeEvent frames one event in the store's SNP1 record format: the
// sequence number in the generation field, the kind + data as a JSON
// payload, CRC32 over the lot.
func EncodeEvent(ev Event) []byte {
	return store.EncodeRecord(ev.Seq, encodeBody(ev.Kind, ev.Data))
}

// encodeBody is the JSON payload EncodeEvent frames.
func encodeBody(kind string, data json.RawMessage) []byte {
	body, err := json.Marshal(eventBody{Kind: kind, Data: data})
	if err != nil {
		// Kind is a registry string and Data is already-valid JSON;
		// reaching here means a caller handed us a non-JSON RawMessage.
		// Frame the error loudly rather than panicking the writer.
		body, _ = json.Marshal(eventBody{Kind: kind})
	}
	return body
}

// kindInfo is one interned event kind together with the two payload
// shapes encodeBody gives its events, both derived from encodeBody
// itself: the whole body of an event without data, and the bytes ahead
// of the data of an event with some, which the closing brace follows.
// Reads use them to take an event's data straight out of its record:
// a full JSON decode costs several microseconds per event, and every
// projection reads every event.
type kindInfo struct {
	name       string
	bare       []byte // nil: decode every record of this entry in full
	dataPrefix []byte
}

func newKindInfo(kind string) *kindInfo {
	probe := encodeBody(kind, json.RawMessage("0"))
	return &kindInfo{name: kind, bare: encodeBody(kind, nil), dataPrefix: probe[:len(probe)-len("0}")]}
}

// data returns the event data in payload, a body encodeBody wrote for
// k's kind; ok is false for a body of any other shape.
func (k *kindInfo) data(payload []byte) (data json.RawMessage, ok bool) {
	if k.bare == nil {
		return nil, false
	}
	if bytes.Equal(payload, k.bare) {
		return nil, true
	}
	end := len(payload) - 1
	if end <= len(k.dataPrefix) || payload[end] != '}' || !bytes.HasPrefix(payload, k.dataPrefix) {
		return nil, false
	}
	return payload[len(k.dataPrefix):end:end], true
}

// decodeOne parses a single event from the front of b, returning the
// event, the record's JSON payload and the bytes after the record.
func decodeOne(b []byte) (Event, []byte, []byte, error) {
	seq, payload, rest, err := store.DecodeRecord(b)
	if err != nil {
		return Event{}, nil, nil, err
	}
	var body eventBody
	if err := json.Unmarshal(payload, &body); err != nil {
		return Event{}, nil, nil, fmt.Errorf("%w: event body: %v", store.ErrCorrupt, err)
	}
	if body.Kind == "" {
		return Event{}, nil, nil, fmt.Errorf("%w: event without kind", store.ErrCorrupt)
	}
	if len(body.Data) > MaxEventBytes {
		return Event{}, nil, nil, fmt.Errorf("%w: event data %d bytes", store.ErrCorrupt, len(body.Data))
	}
	return Event{Seq: seq, Kind: body.Kind, Data: body.Data}, payload, rest, nil
}

// scanEvents replays a journal byte stream, calling fn with every
// accepted event, its JSON payload, and its record's offset and length
// in b. It never fails: arbitrary bytes decode to the longest
// recoverable event history plus stats on what was skipped. Sequence
// gaps are legal (failed group commits consume numbers); regressions and
// duplicates are not.
func scanEvents(b []byte, fn func(ev Event, payload []byte, off, n int)) Stats {
	stats := Stats{Bytes: len(b)}
	var lastSeq uint64
	for pos := 0; pos < len(b); {
		ev, payload, rest, err := decodeOne(b[pos:])
		if err == nil {
			n := len(b) - pos - len(rest)
			if ev.Seq <= lastSeq {
				stats.Stale++
			} else {
				lastSeq = ev.Seq
				fn(ev, payload, pos, n)
				stats.Events++
			}
			pos += n
			continue
		}
		stats.Corrupt++
		skip := store.NextMagic(b[pos:])
		if skip < 0 {
			break
		}
		stats.Resyncs++
		pos += skip
	}
	return stats
}

// DecodeEvents replays a journal byte stream, accepting every valid
// record whose sequence number advances monotonically and
// resynchronizing past anything else via NextMagic. It never fails:
// arbitrary bytes decode to the longest recoverable event history plus
// stats on what was skipped.
func DecodeEvents(b []byte) ([]Event, Stats) {
	var events []Event
	stats := scanEvents(b, func(ev Event, _ []byte, _, _ int) {
		events = append(events, ev)
	})
	return events, stats
}
