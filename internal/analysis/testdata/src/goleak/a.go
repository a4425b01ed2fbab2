// Package fixtures seeds the goleak analyzer's true positives and
// accepted negatives. The file parses but is never compiled.
package fixtures

import "sync"

// badFireAndForget launches with no join path at all.
func badFireAndForget() {
	go func() { // want `goroutine has no provable join`
		compute()
	}()
}

// badNamedNoJoin launches a resolvable named function that neither
// Dones a WaitGroup nor signals a channel.
func badNamedNoJoin() {
	go compute() // want `goroutine has no provable join`
}

// goodWaitGroup is the canonical Add-before-go / Done-in-body / Wait
// pairing.
func goodWaitGroup(items []int) {
	var wg sync.WaitGroup
	for range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			compute()
		}()
	}
	wg.Wait()
}

// goodNamedMethod resolves the goroutine body through a named function
// declared in this file.
func goodNamedMethod(r *runner) {
	r.wg.Add(1)
	go r.loop()
	r.wg.Wait()
}

type runner struct {
	wg sync.WaitGroup
}

func (r *runner) loop() {
	defer r.wg.Done()
	compute()
}

// badAddAfterGo pairs Done but Adds too late: the Wait can return before
// the goroutine registers.
func badAddAfterGo() {
	var late sync.WaitGroup
	go func() { // want `goroutine has no provable join`
		defer late.Done()
		compute()
	}()
	late.Add(1)
	late.Wait()
}

// goodWaitedElsewhere pairs Add/Done here and leaves the join to another
// function of the package (drain, below) — Shutdown waiting for Serve's
// goroutines.
func (p *pool) goodWaitedElsewhere() {
	p.tasks.Add(1)
	go func() {
		defer p.tasks.Done()
		compute()
	}()
}

type pool struct{ tasks sync.WaitGroup }

func (p *pool) drain() { p.tasks.Wait() }

// badNeverWaited pairs Add/Done correctly, but no function of the package
// calls orphan.Wait() — a Wait in some other package would not count.
func badNeverWaited() {
	var orphan sync.WaitGroup
	orphan.Add(1) // want `WaitGroup "orphan" has Add/Done pairs but no Wait`
	go func() {
		defer orphan.Done()
		compute()
	}()
}

// goodChannelJoin signals completion on a channel the launcher receives.
func goodChannelJoin() error {
	errc := make(chan error, 1)
	go func() {
		errc <- compute()
	}()
	return <-errc
}

// goodCloseJoin signals by closing; the launcher joins in a select.
func goodCloseJoin(cancel chan struct{}) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		compute()
	}()
	select {
	case <-done:
	case <-cancel:
	}
}

// goodDetached is intentionally unjoined, with its reason on record.
func goodDetached() {
	//dbtf:detached process-lifetime metrics loop, reaped at exit
	go func() {
		for {
			compute()
		}
	}()
}

// badBareDetached has the escape hatch without a reason.
func badBareDetached() {
	//dbtf:detached
	go func() { // want `requires a reason`
		compute()
	}()
}

func compute() error { return nil }
