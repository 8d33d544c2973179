package main

import (
	"bytes"
	"encoding/binary"

	"gupcxx"
)

// pingBench is the cross-process ping-pong: rank 0 keeps exactly one
// dependent op in flight against rank 1, rotating Rput, Rget, FetchAdd
// and a wire RPC on 8-byte payloads; rank 1 only serves.
type pingBench struct {
	word, counter gupcxx.GlobalPtr[uint64] // in rank 1's segment
	ad            *gupcxx.AtomicDomain[uint64]
	h             *pingHandlers

	n       int64  // ops issued so far, across regions (selects the family)
	vals    uint64 // seeded value stream state
	lastPut uint64 // value the word must hold
	nextAdd uint64 // value the next FetchAdd must return
	args    [8]byte
}

// pingHandlers are the wire RPCs of the ping-pong world, registered in
// the same order in both processes. stopped is set on rank 1 by the stop
// RPC; it is read and written only on that rank's progress goroutine.
type pingHandlers struct {
	echo, stop gupcxx.RPCHandlerID
	stopped    bool
}

func registerPing(w *gupcxx.World) *pingHandlers {
	h := &pingHandlers{}
	h.echo = w.RegisterRPC(func(_ *gupcxx.Rank, args []byte) []byte {
		// args aliases a pooled buffer; the reply must own its bytes.
		return append([]byte(nil), args...)
	})
	h.stop = w.RegisterRPC(func(_ *gupcxx.Rank, _ []byte) []byte {
		h.stopped = true
		return nil
	})
	return h
}

// newPing allocates the target word and counter on rank 1. Collective.
func newPing(c *rankCtx, h *pingHandlers) *pingBench {
	r := c.r
	word := gupcxx.New[uint64](r)
	counter := gupcxx.New[uint64](r)
	return &pingBench{
		word:    gupcxx.ExchangePtr(r, word)[1],
		counter: gupcxx.ExchangePtr(r, counter)[1],
		ad:      gupcxx.NewAtomicDomain[uint64](r),
		h:       h,
		vals:    c.opts.seed,
	}
}

func (p *pingBench) prepare(*rankCtx) {}

func (p *pingBench) finish(*rankCtx, *report) {}

func (p *pingBench) run(c *rankCtx, until int64, tr *tracer, rep *report) {
	r := c.r
	if r.Me() != 0 {
		for !p.h.stopped {
			r.Serve()
			c.tick(mono(), rep)
		}
		p.h.stopped = false
		return
	}
	for t := mono(); t < until; {
		id := tr.newID()
		end := p.op(r, id, tr, rep)
		rep.sample("step_ns", end-t)
		c.tick(end, rep)
		t = end
	}
	if _, err := gupcxx.RPCWire(r, 1, p.h.stop, nil).WaitErr(); err != nil {
		rep.Failed++
	}
}

// op issues the next op of the rotation, waits for it, checks its
// output and returns the time it completed.
func (p *pingBench) op(r *gupcxx.Rank, id uint64, tr *tracer, rep *report) int64 {
	family := p.n % 4
	p.n++
	var (
		ok         bool
		err        error
		t0, t1, t2 int64
	)
	switch family {
	case 0:
		p.vals = splitmix(p.vals)
		v := p.vals
		t0 = mono()
		res := gupcxx.Rput(r, v, p.word)
		t1 = mono()
		err = res.Op.WaitErr()
		t2 = mono()
		p.lastPut, ok = v, true
	case 1:
		t0 = mono()
		f := gupcxx.Rget(r, p.word)
		t1 = mono()
		var got uint64
		got, err = f.WaitErr()
		t2 = mono()
		ok = got == p.lastPut
	case 2:
		t0 = mono()
		f := p.ad.FetchAdd(p.counter, 1)
		t1 = mono()
		var got uint64
		got, err = f.WaitErr()
		t2 = mono()
		ok = got == p.nextAdd
		p.nextAdd++
	case 3:
		p.vals = splitmix(p.vals)
		binary.LittleEndian.PutUint64(p.args[:], p.vals)
		t0 = mono()
		f := gupcxx.RPCWire(r, 1, p.h.echo, p.args[:])
		t1 = mono()
		var got []byte
		got, err = f.WaitErr()
		t2 = mono()
		ok = bytes.Equal(got, p.args[:])
	}
	rep.Ops++
	if err != nil || !ok {
		rep.Failed++
	}
	rep.sample("initiate_ns", t1-t0)
	rep.sample("wait_ns", t2-t1)
	tr.record(id, pingInitiate[family], t0, t1)
	tr.record(id, pingWait[family], t1, t2)
	return t2
}

// Span names of the rotation's families.
var (
	pingInitiate = [4]string{"rput.initiate", "rget.initiate", "fetch_add.initiate", "rpc_wire.initiate"}
	pingWait     = [4]string{"rput.wait", "rget.wait", "fetch_add.wait", "rpc_wire.wait"}
)
