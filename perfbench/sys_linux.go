package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// mmsgConn moves batches of UDP datagrams with one sendmmsg/recvmmsg
// system call each, so the load generator and sink spend little CPU per
// datagram: per-datagram syscalls left them 9.8 of the 13 µs each
// datagram cost end to end on a 2-CPU host.
type mmsgConn struct {
	conn *net.UDPConn
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
	bufs [][]byte
}

// mmsghdr is struct mmsghdr from <sys/socket.h>.
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// newMmsgConn wraps conn for batches of up to batch datagrams. bufSize is
// the receive buffer per datagram; a sender may pass 0.
func newMmsgConn(conn *net.UDPConn, batch, bufSize int) (*mmsgConn, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("raw socket: %w", err)
	}
	c := &mmsgConn{
		conn: conn,
		rc:   rc,
		hdrs: make([]mmsghdr, batch),
		iovs: make([]syscall.Iovec, batch),
		bufs: make([][]byte, batch),
	}
	for i := range c.bufs {
		if bufSize > 0 {
			c.bufs[i] = make([]byte, bufSize)
		}
		c.hdrs[i].hdr.Iov = &c.iovs[i]
		c.hdrs[i].hdr.Iovlen = 1
	}
	return c, nil
}

// writeBatch sends msgs (at most the batch size) on the connected socket,
// blocking until every one has been handed to the kernel.
func (c *mmsgConn) writeBatch(msgs [][]byte) error {
	if len(msgs) > len(c.hdrs) {
		return errors.New("mmsg: batch too large")
	}
	for i, m := range msgs {
		c.iovs[i].Base = &m[0]
		c.iovs[i].SetLen(len(m))
	}
	for sent := 0; sent < len(msgs); {
		var n uintptr
		var errno syscall.Errno
		err := c.rc.Write(func(fd uintptr) bool {
			n, _, errno = syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&c.hdrs[sent])), uintptr(len(msgs)-sent), syscall.MSG_DONTWAIT, 0, 0)
			return errno != syscall.EAGAIN
		})
		if err != nil {
			return err
		}
		if errno != 0 {
			return fmt.Errorf("sendmmsg: %w", errno)
		}
		sent += int(n)
	}
	return nil
}

// readBatch blocks until at least one datagram arrives (or the socket's
// read deadline passes) and returns how many it read; msg(i) holds the
// i-th.
func (c *mmsgConn) readBatch() (int, error) {
	for i := range c.hdrs {
		c.iovs[i].Base = &c.bufs[i][0]
		c.iovs[i].SetLen(len(c.bufs[i]))
		c.hdrs[i].len = 0
	}
	var n uintptr
	var errno syscall.Errno
	err := c.rc.Read(func(fd uintptr) bool {
		n, _, errno = syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&c.hdrs[0])), uintptr(len(c.hdrs)), syscall.MSG_DONTWAIT, 0, 0)
		return errno != syscall.EAGAIN
	})
	if err != nil {
		return 0, err
	}
	if errno != 0 {
		return 0, fmt.Errorf("recvmmsg: %w", errno)
	}
	return int(n), nil
}

func (c *mmsgConn) msg(i int) []byte { return c.bufs[i][:c.hdrs[i].len] }

// pinProcess restricts every thread of this process to one CPU; threads
// created later inherit the restriction from their creator.
func pinProcess(cpu int) error {
	var mask [16]uint64
	mask[cpu/64] |= 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, task := range tasks {
		tid, err := strconv.Atoi(task.Name())
		if err != nil {
			continue
		}
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
		if e != 0 && e != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity: %w", e)
		}
	}
	return nil
}

// cpuPair returns the two lowest CPUs this process may run on, for the
// generator and sink (load) and the system under test (sut); ok is false
// on a single CPU.
func cpuPair() (load, sut int, ok bool) {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return 0, 0, false
	}
	var cpus []int
	for c := 0; c < 64*len(mask) && len(cpus) < 2; c++ {
		if mask[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < 2 {
		return 0, 0, false
	}
	return cpus[0], cpus[1], true
}
