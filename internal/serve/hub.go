package serve

import (
	"encoding/json"
	"sync"
)

// hubReplayLimit bounds each run's replay buffer. Beyond it the oldest
// half is evicted, mirroring the event log's amortised compaction — a
// pathological run cannot hold the service's memory hostage, and late
// subscribers still see the stream's tail plus every terminal event.
const hubReplayLimit = 16384

// subBuffer is a subscriber channel's depth; a consumer further than
// this behind loses intermediate events (never the terminal one, which
// is delivered by channel close + replay).
const subBuffer = 1024

// StreamEvent is one SSE frame: a named event with a JSON body and a
// stream-unique increasing id.
type StreamEvent struct {
	ID   int
	Name string
	Data []byte
}

// hub is one run's event stream: an append-only replay buffer plus
// live fan-out to any number of concurrent subscribers. Publishers
// never block — a slow subscriber drops intermediate events rather
// than pacing the simulation.
type hub struct {
	mu     sync.Mutex
	events []StreamEvent
	nextID int
	subs   map[chan StreamEvent]struct{}
	done   bool
}

func newHub() *hub {
	return &hub{subs: make(map[chan StreamEvent]struct{})}
}

// publish appends one event (v is JSON-marshalled) and fans it out.
// Marshal failures are programming errors on our own payload types and
// panic rather than silently truncating the stream.
func (h *hub) publish(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		panic("serve: marshalling stream event " + name + ": " + err.Error())
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return // terminal event already sealed the stream
	}
	ev := StreamEvent{ID: h.nextID, Name: name, Data: data}
	h.nextID++
	if len(h.events) >= hubReplayLimit {
		half := hubReplayLimit / 2
		n := copy(h.events, h.events[half:])
		h.events = h.events[:n]
	}
	h.events = append(h.events, ev)
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // a slow subscriber loses this frame
		}
	}
}

// terminate publishes the stream's final event and seals the hub:
// every subscriber channel closes after the terminal event, and later
// subscribers replay the buffer and close immediately.
func (h *hub) terminate(name string, v any) {
	h.publish(name, v)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.done = true
	for ch := range h.subs {
		close(ch)
		delete(h.subs, ch)
	}
}

// subscribe returns the replay of everything published so far plus a
// live channel for what follows. The channel is closed at stream end
// (or by cancel). For an already-terminated run, live is closed and
// the replay is the whole stream.
func (h *hub) subscribe() (replay []StreamEvent, live <-chan StreamEvent, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	replay = make([]StreamEvent, len(h.events))
	copy(replay, h.events)
	ch := make(chan StreamEvent, subBuffer)
	if h.done {
		close(ch)
		return replay, ch, func() {}
	}
	h.subs[ch] = struct{}{}
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			close(ch)
			delete(h.subs, ch)
		}
	}
}

// terminated reports whether the stream has ended.
func (h *hub) terminated() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}
