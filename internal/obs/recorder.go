package obs

// Recorder buffers events for deferred, in-order replay. The preprocessing
// cache (internal/prep, DESIGN.md §14) stores a Recorder's tape next to each
// memoized value: a cache hit replays the recorded events so cached and cold
// sessions emit identical streams.
//
// A Recorder is NOT safe for concurrent use; each producer owns its own.
// Events hold only value types, so a recorded event replays bit-identically.
type Recorder struct {
	events []Event
}

// Event implements Observer.
func (r *Recorder) Event(e Event) { r.events = append(r.events, e) }

// Events returns the recorded tape in arrival order. The slice aliases the
// recorder's buffer; callers that outlive the recorder should copy it.
func (r *Recorder) Events() []Event { return r.events }

// Len reports how many events are buffered.
func (r *Recorder) Len() int { return len(r.events) }

// ReplayTape emits a recorded tape, in order, into o (nil-safe: replaying
// into a nil observer is a no-op, like every emit in this package). Tapes
// are detached from their Recorder, e.g. stored in the preprocessing cache.
func ReplayTape(tape []Event, o Observer) {
	for _, e := range tape {
		Emit(o, e)
	}
}
