// Package obs is the runtime's operations plane: a bounded non-blocking
// event bus for substrate health transitions, per-family latency
// histograms fed by the op pipeline's phase hook, a delta-sampling rate
// ticker, and the HTTP export surface (/metrics Prometheus text,
// /debug/gupcxx JSON snapshot).
//
// The package deliberately depends on nothing but the standard library:
// internal/gasnet publishes events into a Bus it is handed, and the root
// runtime package composes the exposition from the other layers'
// counters. Nothing here may block or allocate on a progress goroutine —
// publishing with no subscriber attached is one atomic load, and
// publishing to a full subscription sheds the oldest event instead of
// waiting (Dropped counts the shed).
package obs

// EventKind identifies one class of substrate health event.
type EventKind uint8

const (
	// EvPeerSuspect: the observing rank's liveness detector moved a peer
	// Alive→Suspect (silence past SuspectAfter, or sustained receive-side
	// shedding).
	EvPeerSuspect EventKind = iota
	// EvPeerDown: a peer was declared Down — silence past DownAfter, an
	// exhausted retransmission budget, or a goodbye. Down holds until the
	// peer comes back: under the same incarnation once a partition probe
	// gets through (EvPeerHealed, silence-driven Down only), or under its
	// next incarnation when it rejoins (EvPeerReadmitted).
	EvPeerDown
	// EvPeerRecovered: a Suspect peer was heard from again and returned
	// to Alive.
	EvPeerRecovered
	// EvBackpressureOn: admission toward Peer transitioned idle→blocked
	// (the send window filled). A holds the in-flight count, B the window.
	EvBackpressureOn
	// EvBackpressureOff: admission toward Peer obtained credit again
	// after a blocked spell. A holds the in-flight count, B the window.
	EvBackpressureOff
	// EvWindowShrink: an RTO expiry halved the congestion window toward
	// Peer. A holds the old window, B the new one.
	EvWindowShrink
	// EvWindowGrow: the congestion window toward Peer recovered all the
	// way back to its configured ceiling (emitted on the transition, not
	// per additive increase, to bound event volume). A holds the ceiling.
	EvWindowGrow
	// EvRetransmitExhausted: a datagram toward Peer spent its
	// retransmission budget, declaring the peer down. A holds the
	// sequence number that exhausted.
	EvRetransmitExhausted
	// EvDeadlineExpired: a per-op deadline fired before the substrate
	// acknowledged. Peer is -1 (the op table does not thread the target
	// here); A holds the operation family (core.OpKind).
	EvDeadlineExpired
	// EvInMemFallback: a UDP-conduit world delivered a closure-carrying
	// message through the in-memory handoff because the wire cannot
	// encode it — the run is not fully exercising the wire it claims to.
	// Emitted once per Domain (the first fallback; Stats.InMemFallbacks
	// counts them all). A holds the handler id of the first fallback.
	EvInMemFallback
	// EvPeerReadmitted: a Down (or freshly restarted) peer rejoined under
	// a new incarnation and was readmitted with reset reliability state.
	// A holds the new incarnation, B the previously recorded one (0 when
	// the peer had never been heard).
	EvPeerReadmitted
	// EvStaleIncarnation: a frame stamped with a dead incarnation of Peer
	// was rejected (edge-triggered per stale episode;
	// Stats.StaleIncarnationDrops counts every drop). A holds the stale
	// incarnation on the frame, B the currently recorded one.
	EvStaleIncarnation
	// EvPartitionSuspected: a peer was declared Down through SILENCE
	// (heartbeat timeout or retransmit exhaustion, as opposed to a goodbye
	// frame) — indistinguishable from a network partition, so the
	// detector begins probing the pair for recovery.
	// Emitted alongside the EvPeerDown of the same transition.
	EvPartitionSuspected
	// EvPeerHealed: a silence-declared Down peer answered a partition
	// probe under the SAME incarnation and returned to Alive with its
	// parked reliability state re-armed — recovery without readmission.
	// A holds the (unchanged) incarnation.
	EvPeerHealed

	// NumEventKinds bounds the EventKind space.
	NumEventKinds
)

// String names the event kind for metric labels and log lines.
func (k EventKind) String() string {
	switch k {
	case EvPeerSuspect:
		return "peer-suspect"
	case EvPeerDown:
		return "peer-down"
	case EvPeerRecovered:
		return "peer-recovered"
	case EvBackpressureOn:
		return "backpressure-on"
	case EvBackpressureOff:
		return "backpressure-off"
	case EvWindowShrink:
		return "window-shrink"
	case EvWindowGrow:
		return "window-grow"
	case EvRetransmitExhausted:
		return "retransmit-exhausted"
	case EvDeadlineExpired:
		return "deadline-expired"
	case EvInMemFallback:
		return "in-mem-fallback"
	case EvPeerReadmitted:
		return "peer-readmitted"
	case EvStaleIncarnation:
		return "stale-incarnation"
	case EvPartitionSuspected:
		return "partition-suspected"
	case EvPeerHealed:
		return "peer-healed"
	default:
		return "event(?)"
	}
}

// Event is one bus entry: a flat value type (no pointers, no interfaces)
// so publishing copies a few words and never allocates.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Time is the observation instant, UnixNano. Publishers may stamp it
	// (the substrate uses its cached clock); the bus stamps a zero Time
	// itself, after the no-subscriber early-out.
	Time int64
	// Rank is the observing rank.
	Rank int32
	// Peer is the peer rank the event concerns, or -1 when there is none.
	Peer int32
	// A and B carry kind-specific payload (see the EventKind docs).
	A, B int64
}
