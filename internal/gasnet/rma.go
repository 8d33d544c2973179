package gasnet

import "errors"

// ErrBadAddress reports that a remote operation named memory outside the
// target rank's segment (or an invalid atomic op code): the target refused
// the request and replied with an addressing-error status instead of
// touching its memory. Before process-per-rank worlds this was a panic —
// both sides shared one trusted address space. Wire input is untrusted, so
// it is now a completion value, counted in Stats.BadAddrDrops on the
// target.
var ErrBadAddress = errors.New("gasnet: remote address outside target segment")

// This file implements the AM-based remote RMA and atomic protocol: the
// code path taken when the target segment is NOT directly addressable by
// the initiator. Each operation is a request/reply pair; the reply carries
// the initiator-side cookie that locates the completion callback in the
// endpoint's outstanding-op table. Completion callbacks therefore always
// run inside the initiator's Poll — i.e. remote operations never complete
// synchronously, which is exactly why the paper's eager-notification
// optimization is a no-op (one predicted-untaken branch) off-node.
//
// Every completion callback carries an error: nil on the reply path, or
// ErrPeerUnreachable when the target was declared down — either at
// injection (the peer is already down, so the request is refused on the
// spot) or later, when the liveness sweep retires the pending entry.

// nopDone is installed when the caller passes a nil completion callback.
func nopDone(*Msg, error) {}

// nopAck is the bare-acknowledgment equivalent.
func nopAck(error) {}

// injectGen returns the generation an op toward `to` is stamped with
// (PeerGen), or ok false — counted in DownPeerFails — when `to` is already
// declared dead and the op must fail on the spot, keeping the op table
// free of entries the (already completed) sweep would never retire.
func (ep *Endpoint) injectGen(to int) (gen uint32, ok bool) {
	gen, down := ep.PeerGen(to)
	if down {
		ep.dom.downPeerFails.Add(1)
	}
	return gen, !down
}

// PutRemote initiates a put of data into the target rank's segment at byte
// offset off. remoteFn, if non-nil, is executed on the target's progress
// goroutine after the data is applied (the paper's remote completion /
// remote_cx::as_rpc). onDone, if non-nil, runs on the initiating rank's
// goroutine once the target has acknowledged (operation completion, nil
// error) or the target is declared unreachable. data is copied at
// injection time, so the caller may reuse the buffer immediately (source
// completion is synchronous).
func (ep *Endpoint) PutRemote(to int, off uint32, data []byte, remoteFn func(*Endpoint), onDone func(error)) {
	// Registered in its bare form: a func(*Msg, error) wrapper here would
	// cost one closure allocation per put.
	if onDone == nil {
		onDone = nopAck
	}
	gen, ok := ep.injectGen(to)
	if !ok {
		onDone(ErrPeerUnreachable)
		return
	}
	cookie := ep.ops.addDone(to, gen, onDone)
	// Stage the payload in a pooled buffer: Send consumes the reference
	// (transferring it to the receiver in-memory, or dropping it once the
	// bytes are on the wire), so steady-state puts allocate nothing.
	wb := ep.dom.arena.get(len(data))
	copy(wb.b, data)
	ep.Send(to, Msg{
		Handler: hPutReq,
		A0:      cookie,
		A1:      uint64(off),
		Payload: wb.b,
		Fn:      remoteFn,
		buf:     wb,
	})
}

// PutNotifyRemote initiates a put that lands data at off in the target
// rank's segment and then runs the target's registered notify handler id
// with args during its user-level progress — the wire-encodable form of
// remote completion (no closure crosses the wire, so it works across
// address spaces; see Domain.SetNotifyHook). The request packs the notify
// id into A2 (biased by one so zero keeps meaning "no notify") and the
// argument length into A3; args ride behind the data in the payload.
// onDone follows PutRemote's contract.
func (ep *Endpoint) PutNotifyRemote(to int, off uint32, data []byte, id uint32, args []byte, onDone func(error)) {
	if onDone == nil {
		onDone = nopAck
	}
	gen, ok := ep.injectGen(to)
	if !ok {
		onDone(ErrPeerUnreachable)
		return
	}
	cookie := ep.ops.addDone(to, gen, onDone)
	wb := ep.dom.arena.get(len(data) + len(args))
	copy(wb.b, data)
	copy(wb.b[len(data):], args)
	ep.Send(to, Msg{
		Handler: hPutReq,
		A0:      cookie,
		A1:      uint64(off),
		A2:      uint64(id) + 1,
		A3:      uint64(len(args)),
		Payload: wb.b,
		buf:     wb,
	})
}

// splitPut validates a put request's addressing and splits its payload
// into the data to land and the notify-argument bytes riding behind it
// (A3 is the argument length; zero for plain puts, so pre-notify senders
// decode unchanged). An invalid request — argument length exceeding the
// payload, or a destination range outside this rank's segment — is
// counted, nacked with an addressing-error ack, and refused.
func splitPut(ep *Endpoint, m *Msg) (data, args []byte, ok bool) {
	if m.A3 <= uint64(len(m.Payload)) {
		cut := uint64(len(m.Payload)) - m.A3
		data, args = m.Payload[:cut], m.Payload[cut:]
		if ep.Segment().ValidRange(m.A1, uint64(len(data))) {
			return data, args, true
		}
	}
	ep.dom.badAddrDrops.Add(1)
	ep.Send(int(m.From), Msg{Handler: hPutAck, A0: m.A0, A3: ackBadAddr})
	return nil, nil, false
}

// runNotify dispatches a put's notify (if the request carried one) to the
// runtime layer's hook. Runs on the target rank's goroutine; args must not
// be retained past the call.
func (ep *Endpoint) runNotify(m *Msg, args []byte) {
	if m.A2 == 0 {
		return
	}
	if hook := ep.dom.notifyHook; hook != nil {
		hook(ep, uint32(m.A2-1), args)
	}
}

func handlePutReq(ep *Endpoint, m *Msg) {
	data, args, ok := splitPut(ep, m)
	if !ok {
		return
	}
	ep.Segment().CopyIn(uint32(m.A1), data)
	if m.Fn != nil {
		m.Fn(ep)
	}
	ep.runNotify(m, args)
	ep.Send(int(m.From), Msg{Handler: hPutAck, A0: m.A0})
}

// applyPutHeld services a put request that carries user-level work (an
// in-memory remote-completion closure or a wire notify id) at
// internal-level progress: it validates and applies the data and sends the
// ack immediately, but returns the user-level work as a closure for the
// endpoint to hold until the next Poll — remote_cx::as_rpc semantics. ok
// is false when the request was refused (nack already sent); fn is nil
// when the request carried no user-level work after all.
func (ep *Endpoint) applyPutHeld(m *Msg) (fn func(*Endpoint), ok bool) {
	data, args, ok := splitPut(ep, m)
	if !ok {
		return nil, false
	}
	ep.Segment().CopyIn(uint32(m.A1), data)
	ep.Send(int(m.From), Msg{Handler: hPutAck, A0: m.A0})
	fn = m.Fn
	if m.A2 != 0 {
		if hook := ep.dom.notifyHook; hook != nil {
			// The drain buffer is recycled before Poll runs the held work,
			// so the notify arguments must be detached. The allocation is
			// confined to the held path — Poll-serviced notifies (the
			// common case) pass the payload through without copying.
			id := uint32(m.A2 - 1)
			argsCopy := append([]byte(nil), args...)
			if inner := fn; inner != nil {
				fn = func(ep *Endpoint) { inner(ep); hook(ep, id, argsCopy) }
			} else {
				fn = func(ep *Endpoint) { hook(ep, id, argsCopy) }
			}
		}
	}
	return fn, true
}

// GetRemote initiates a get of n bytes from the target rank's segment at
// byte offset off into dst (which must have length >= n). onDone runs on
// the initiating rank's goroutine during a later Poll, after the data has
// been stored into dst (nil error) or the target is declared unreachable
// (dst untouched).
func (ep *Endpoint) GetRemote(to int, off uint32, n int, dst []byte, onDone func(error)) {
	gen, ok := ep.injectGen(to)
	if !ok {
		if onDone != nil {
			onDone(ErrPeerUnreachable)
		}
		return
	}
	// Registered closure-free: the table copies the reply into dst before
	// invoking onDone (opTable.addGet), so a steady-state get allocates
	// nothing on the initiator.
	if onDone == nil {
		onDone = nopAck
	}
	cookie := ep.ops.addGet(to, gen, dst, onDone)
	ep.Send(to, Msg{
		Handler: hGetReq,
		A0:      cookie,
		A1:      uint64(off),
		A2:      uint64(n),
	})
}

func handleGetReq(ep *Endpoint, m *Msg) {
	// Wire-supplied offset and length are untrusted: a request outside the
	// segment — or one whose reply could never fit a datagram, which would
	// otherwise be a remote-triggerable panic at the reply send — is
	// counted and nacked, never applied.
	if !ep.Segment().ValidRange(m.A1, m.A2) ||
		(ep.dom.cfg.Conduit == UDP && m.A2 > maxUDPPayload) {
		ep.dom.badAddrDrops.Add(1)
		ep.Send(int(m.From), Msg{Handler: hGetRep, A0: m.A0, A3: ackBadAddr})
		return
	}
	n := int(m.A2)
	wb := ep.dom.arena.get(n)
	ep.Segment().CopyOut(uint32(m.A1), wb.b)
	ep.Send(int(m.From), Msg{Handler: hGetRep, A0: m.A0, Payload: wb.b, buf: wb})
}

// AmoRemote initiates an atomic op on the 8-byte word at off in the target
// rank's segment. onOld, if non-nil, receives the word's previous value
// (and a nil error) on the initiating rank's goroutine during a later
// Poll, or a zero value with ErrPeerUnreachable if the target is declared
// down. Non-fetching callers pass an onOld that ignores its value (or
// nil).
func (ep *Endpoint) AmoRemote(to int, off uint32, op AmoOp, operand1, operand2 uint64, onOld func(old uint64, err error)) {
	gen, ok := ep.injectGen(to)
	if !ok {
		if onOld != nil {
			onOld(0, ErrPeerUnreachable)
		}
		return
	}
	cb := nopDone
	if onOld != nil {
		cb = func(m *Msg, err error) {
			if err != nil {
				onOld(0, err)
				return
			}
			onOld(m.A1, nil)
		}
	}
	cookie := ep.ops.add(to, gen, cb)
	ep.Send(to, Msg{
		Handler: hAmoReq,
		A0:      cookie,
		A1:      uint64(off) | uint64(op)<<32,
		A2:      operand1,
		A3:      operand2,
	})
}

func handleAmoReq(ep *Endpoint, m *Msg) {
	off := uint32(m.A1)
	op := AmoOp(m.A1 >> 32)
	// ApplyAmo panics on invalid input by contract (trusted callers); a
	// wire request is not a trusted caller, so validate the op code,
	// alignment, and bounds first and nack instead.
	if !op.Valid() || off%8 != 0 || !ep.Segment().ValidRange(uint64(off), 8) {
		ep.dom.badAddrDrops.Add(1)
		ep.Send(int(m.From), Msg{Handler: hAmoRep, A0: m.A0, A3: ackBadAddr})
		return
	}
	old := ApplyAmo(ep.Segment(), off, op, m.A2, m.A3)
	ep.Send(int(m.From), Msg{Handler: hAmoRep, A0: m.A0, A1: old})
}
