package main

import "syscall"

// childAttr has the kernel kill a child server should the benchmark
// itself be killed, so no listener outlives it.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
