package gupcxx

import (
	"fmt"

	"gupcxx/internal/core"
	"gupcxx/internal/gasnet"
)

// Wire-safe RPC: procedures registered by identifier with byte-slice
// arguments and results, so the invocation is fully serializable — the
// form a multi-process conduit requires (closures cannot cross address
// spaces; see DESIGN.md). On the UDP conduit, registered RPC invocations
// travel through the kernel as datagrams end-to-end; closure RPC remains
// available for in-memory conduits.
//
// Handlers must be registered on the World before Run, in the same order
// everywhere handler IDs are used (they are matched by registration
// index, like dist-object instances).

// RPCHandler processes one wire RPC on the target rank's progress
// goroutine: it receives the target rank and the request payload and
// returns the reply payload. It must not block.
//
// args is valid only for the duration of the call and must be treated as
// read-only: it aliases a pooled conduit buffer that is recycled after the
// handler returns. A handler that retains the bytes must copy them.
//
// A panic in the handler is contained: the target recovers it, counts it
// (Stats.HandlerPanics), and serializes the panic text into an error
// reply frame, so the initiator's future resolves with a *RemoteError
// while the target keeps running.
type RPCHandler func(r *Rank, args []byte) []byte

// RPCHandlerID names a registered wire-RPC procedure.
type RPCHandlerID uint32

// RegisterRPC registers fn and returns its identifier. Must be called
// before Run; every rank resolves the same ID to the same procedure.
func (w *World) RegisterRPC(fn RPCHandler) RPCHandlerID {
	w.rpcHandlers = append(w.rpcHandlers, fn)
	return RPCHandlerID(len(w.rpcHandlers) - 1)
}

// Wire-reply status codes, carried in the reply's A1.
const (
	wireRepOK           uint64 = iota // payload = reply bytes
	wireRepPanic                      // payload = serialized panic text
	wireRepUnregistered               // handler ID unknown at the target
)

// pendingWire tracks this rank's outstanding wire-RPC calls. Owner
// goroutine only: replies are dispatched during this rank's progress.
// Retired wireCall records recycle through pool, so a steady-state
// wire-RPC stream allocates no per-call tracking state.
type pendingWire struct {
	slots []*wireCall
	free  []uint32
	pool  []*wireCall
}

// wireCall is one outstanding wire RPC. Exactly one of vp (future form:
// the reply is copied into the future's value slot) or cont
// (continuation form: the reply is handed to the callback zero-copy) is
// set. bridge and inject cache method values on the pooled record, and
// contCx caches the one-element completion set around bridge, so the
// continuation form's hot path allocates nothing per call.
type wireCall struct {
	vp   *[]byte
	cont func(reply []byte, err error)
	// reply stages the continuation form's reply bytes between the
	// reply handler and the progress engine's continuation delivery;
	// they alias a pooled conduit buffer, hence the call-duration
	// contract on the callback.
	reply  []byte
	done   func(error)
	bridge func(error)
	inject func(rfn func(ctx any), done func(error))
	contCx []Cx
	r      *Rank
	args   []byte
	id     RPCHandlerID
	peer   int32
	// gen is the target's death generation at registration; the peer-down
	// sweep fails only calls from generations older than the death it is
	// sweeping, so calls issued against a readmitted incarnation survive a
	// sweep still reporting its predecessor's death.
	gen uint32
	// sent marks that inject registered the call; when false after
	// Initiate returns (admission refused, peer down), the error was
	// already delivered inline and the record goes straight back to the
	// pool.
	sent bool
}

// deliver is the continuation form's completion bridge, run by the
// progress engine as the operation's OpContinue sink: it hands the
// staged reply (nil on failure) to the user callback, clearing the
// pooled-buffer reference first.
func (c *wireCall) deliver(err error) {
	reply := c.reply
	c.reply = nil
	c.cont(reply, err)
}

// injectCont is the continuation form's substrate injection, cached as a
// method value so initiation ships no per-call closure.
func (c *wireCall) injectCont(_ func(ctx any), done func(error)) {
	r := c.r
	target := int(c.peer)
	gen, down := r.ep.PeerGen(target)
	if down {
		done(ErrPeerUnreachable)
		return
	}
	c.done, c.sent, c.gen = done, true, gen
	cookie := r.wire.add(c)
	r.ep.Send(target, gasnet.Msg{
		Handler: hRPCWireReq,
		A0:      cookie,
		A1:      uint64(c.id),
		Payload: c.args,
	})
}

// get takes a recycled wireCall (or builds one, caching its method-value
// bridges — the only allocations, amortized to zero by the pool).
func (p *pendingWire) get() *wireCall {
	if n := len(p.pool); n > 0 {
		c := p.pool[n-1]
		p.pool[n-1] = nil
		p.pool = p.pool[:n-1]
		return c
	}
	c := &wireCall{}
	c.bridge = c.deliver
	c.inject = c.injectCont
	c.contCx = []Cx{core.OpContinue(c.bridge)}
	return c
}

// put clears a retired call's per-invocation state and returns it to the
// pool. Callers must ensure the record is out of slots (or was never
// added) and its completion has been delivered.
func (p *pendingWire) put(c *wireCall) {
	c.vp = nil
	c.cont = nil
	c.reply = nil
	c.done = nil
	c.r = nil
	c.args = nil
	c.id = 0
	c.peer = 0
	c.gen = 0
	c.sent = false
	p.pool = append(p.pool, c)
}

func (p *pendingWire) add(c *wireCall) uint64 {
	if len(p.free) > 0 {
		id := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		p.slots[id] = c
		return uint64(id)
	}
	p.slots = append(p.slots, c)
	return uint64(len(p.slots) - 1)
}

// take removes and returns the call registered under cookie; ok is false
// for cookies that are out of range or already retired (a duplicated or
// straggling reply — e.g. one racing the peer-down sweep that failed the
// call). Such replies are dropped and counted, never crash.
func (p *pendingWire) take(cookie uint64) (*wireCall, bool) {
	if cookie >= uint64(len(p.slots)) || p.slots[cookie] == nil {
		return nil, false
	}
	c := p.slots[cookie]
	p.slots[cookie] = nil
	p.free = append(p.free, uint32(cookie))
	return c, true
}

// failPeer retires every pending call targeting peer whose registration
// generation predates gen (the death generation being swept), resolving
// each with err. Called from the endpoint's peer-down hook (owner
// goroutine) when the liveness detector declares the peer unreachable.
// Calls registered after the death — against the readmitted incarnation —
// have gen equal to the sweep's and are left alone.
func (p *pendingWire) failPeer(peer int, gen uint32, err error) int {
	n := 0
	for id, c := range p.slots {
		if c != nil && int(c.peer) == peer && c.gen < gen {
			p.slots[id] = nil
			p.free = append(p.free, uint32(id))
			c.done(err)
			p.put(c)
			n++
		}
	}
	return n
}

// RPCWire invokes registered procedure id on the target rank with the
// given argument bytes, returning a future carrying the reply bytes. The
// entire exchange is wire-encoded (request and reply both cross the
// conduit as data, never as closures).
//
// The future resolves with an error instead of reply bytes when the
// procedure is not registered (here or at the target), the target panics
// executing it (*RemoteError), the target is or becomes unreachable
// (ErrPeerUnreachable), or an OpDeadline in cxs expires first.
func RPCWire(r *Rank, target int, id RPCHandlerID, args []byte, cxs ...Cx) FutureV[[]byte] {
	if int(id) >= len(r.w.rpcHandlers) {
		return core.FailedFutureV[[]byte](r.eng,
			fmt.Errorf("gupcxx: wire RPC to unregistered handler %d", id))
	}
	return core.InitiateV(r.eng, core.OpDescV[[]byte]{
		Kind:     core.OpRPC,
		Deadline: core.DeadlineOf(cxs),
		Peer:     target,
		Admit:    true,
		Inject: func(slot *[]byte, done func(error)) {
			gen, down := r.ep.PeerGen(target)
			if down {
				done(ErrPeerUnreachable)
				return
			}
			c := r.wire.get()
			c.vp, c.done, c.peer, c.gen = slot, done, int32(target), gen
			cookie := r.wire.add(c)
			r.ep.Send(target, gasnet.Msg{
				Handler: hRPCWireReq,
				A0:      cookie,
				A1:      uint64(id),
				Payload: args,
			})
		},
	})
}

// RPCWireContinue invokes registered procedure id on the target rank,
// delivering the reply through cont instead of a future — the cell-free
// wire-RPC form. cont runs on this rank's progress goroutine the moment
// the reply (or failure) is known: on success err is nil and reply
// carries the handler's bytes; on failure reply is nil and err is the
// *RemoteError / ErrPeerUnreachable / deadline error the future form
// would have carried.
//
// reply is valid only for the duration of the callback and must be
// treated as read-only: it aliases a pooled conduit buffer that is
// recycled after dispatch (the same contract as RPCHandler args). A
// callback that retains the bytes must copy them. This is what removes
// the future form's per-reply allocation pair (future cell + reply
// copy): steady-state, the continuation form's call tracking, reply
// delivery, and completion state are all recycled.
//
// cont must not block; it may initiate communication (including further
// wire RPCs). A panic in cont is contained and counted
// (ContinuationPanics). cxs may carry OpDeadline requests bounding the
// completion time; other completion kinds are ignored (the continuation
// is the only sink).
func RPCWireContinue(r *Rank, target int, id RPCHandlerID, args []byte, cont func(reply []byte, err error), cxs ...Cx) {
	if int(id) >= len(r.w.rpcHandlers) {
		cont(nil, fmt.Errorf("gupcxx: wire RPC to unregistered handler %d", id))
		return
	}
	c := r.wire.get()
	c.r, c.id, c.args, c.peer, c.cont = r, id, args, int32(target), cont
	r.eng.Initiate(core.OpDesc{
		Kind:     core.OpRPC,
		Deadline: core.DeadlineOf(cxs),
		Peer:     target,
		Admit:    true,
		Inject:   c.inject,
	}, c.contCx)
	if !c.sent {
		// Admission refused or peer already down: the error was delivered
		// through the continuation inline and the call never entered the
		// pending table.
		r.wire.put(c)
	}
}

// handleRPCWireReq executes a registered procedure and ships the reply —
// or, when the procedure is missing or panics, a status frame carrying
// the failure.
func handleRPCWireReq(ep *gasnet.Endpoint, m *gasnet.Msg) {
	r := rankOf(ep)
	id := RPCHandlerID(m.A1)
	if int(id) >= len(r.w.rpcHandlers) {
		ep.Send(int(m.From), gasnet.Msg{Handler: hRPCWireRep, A0: m.A0, A1: wireRepUnregistered})
		return
	}
	// Zero-copy: the payload is handed to the handler directly under the
	// RPCHandler contract (read-only, call duration only) — the pooled
	// buffer it aliases is recycled after dispatch.
	var reply []byte
	err := r.runContained(func(hr *Rank) { reply = r.w.rpcHandlers[id](hr, m.Payload) })
	if err != nil {
		ep.Send(int(m.From), gasnet.Msg{
			Handler: hRPCWireRep,
			A0:      m.A0,
			A1:      wireRepPanic,
			Payload: []byte(err.(*RemoteError).Msg),
		})
		return
	}
	ep.Send(int(m.From), gasnet.Msg{
		Handler: hRPCWireRep,
		A0:      m.A0,
		A1:      wireRepOK,
		Payload: reply,
	})
}

// handleRPCWireRep completes the initiator's pending call and recycles
// its tracking record. The future form copies the reply out (the future
// may be read long after the conduit buffer recycles); the continuation
// form stages the payload zero-copy — the callback runs synchronously
// inside done's completion delivery, within the reply's call-duration
// window.
func handleRPCWireRep(ep *gasnet.Endpoint, m *gasnet.Msg) {
	r := rankOf(ep)
	c, ok := r.wire.take(m.A0)
	if !ok {
		r.w.dom.NoteBadCookie()
		return
	}
	var err error
	switch m.A1 {
	case wireRepOK:
	case wireRepPanic:
		err = &RemoteError{Rank: int(m.From), Msg: string(m.Payload)}
	default:
		err = &RemoteError{Rank: int(m.From), Msg: "wire RPC handler not registered at target"}
	}
	if c.cont != nil {
		if err == nil {
			c.reply = m.Payload
		}
		c.done(err)
	} else {
		if err == nil {
			*c.vp = append([]byte(nil), m.Payload...)
		}
		c.done(err)
	}
	r.wire.put(c)
}
