package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// Idle spinners keep every CPU of a pinned run from halting while the
// run lasts. On a VM, an idle vCPU halts and leaves the host; waking it
// for the next request waits for the host's scheduler, which on a shared
// host adds milliseconds that come and go with the neighbours' load (on
// the 2-vCPU VM this benchmark was built on, ide-unique answered 960
// stmt/s with p50 3.8 ms without spinners and 2400 stmt/s with p50
// 1.3 ms with them, in alternating runs of the same code within minutes).
// A spinner runs at SCHED_IDLE, so the server and the generator preempt
// it the moment they are runnable: it only fills time in which the CPU
// would otherwise halt.

// spinners are the running spinner processes.
type spinners []*exec.Cmd

// startSpinners starts one SCHED_IDLE spinner on each CPU of a pinned
// placement. Without chrt, or unpinned, the run goes without them, and
// the placement line says so.
func startSpinners(pl *placement) (spinners, error) {
	chrt, err := exec.LookPath("chrt")
	if pl.server == "" || err != nil {
		return nil, nil
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var sp spinners
	cpus := append([]string{pl.generator}, strings.Split(pl.server, ",")...)
	for _, cpu := range cpus {
		cmd := exec.Command(chrt, "-i", "0", "taskset", "-c", cpu, self, "-spin")
		if err := cmd.Start(); err != nil {
			sp.stop()
			return nil, fmt.Errorf("start idle spinner: %w", err)
		}
		sp = append(sp, cmd)
	}
	pl.spinners = strings.Join(cpus, ",")
	return sp, nil
}

// stop kills the spinners and waits for them to exit.
func (sp spinners) stop() {
	for _, cmd := range sp {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

var spinSink uint64

// spin is the body of a spinner process: it busy-loops until its parent
// is gone, so a generator that dies without stopping it leaves nothing
// running.
func spin() {
	ppid := os.Getppid()
	for os.Getppid() == ppid {
		for i := uint64(0); i < 1<<20; i++ {
			spinSink += i
		}
	}
}
