package main

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"syscall"
	"unsafe"
)

// The generator moves datagrams in batches, recvmmsg and sendmmsg, as the
// store does: with one syscall per datagram it spent more CPU per write
// than the store it measures, and became the bottleneck.

// mmsgBatch is the datagrams per batched syscall.
const mmsgBatch = 64

// mmsgSyscalls are recvmmsg and sendmmsg by architecture; the syscall
// package names only some of them.
var mmsgSyscalls = map[string][2]uintptr{
	"amd64": {299, 307},
	"arm64": {243, 269},
}

type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// batchIO reads and writes datagram batches on one unconnected UDP
// socket; every datagram it sends goes to the same destination.
type batchIO struct {
	rc       syscall.RawConn
	recv     uintptr
	send     uintptr
	dst      syscall.RawSockaddrInet4
	rxHdrs   []mmsghdr
	rxIovs   []syscall.Iovec
	rxBufs   [][]byte
	rx       [][]byte // the last read's datagrams, views of rxBufs
	txHdrs   []mmsghdr
	txIovs   []syscall.Iovec
	txBufs   [][]byte
	txQueued int
}

func newBatchIO(conn *net.UDPConn, dst netip.AddrPort) (*batchIO, error) {
	nums, ok := mmsgSyscalls[runtime.GOARCH]
	if !ok {
		return nil, fmt.Errorf("loadgen: no recvmmsg/sendmmsg numbers for %s", runtime.GOARCH)
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	b := &batchIO{rc: rc, recv: nums[0], send: nums[1],
		rxHdrs: make([]mmsghdr, mmsgBatch), rxIovs: make([]syscall.Iovec, mmsgBatch),
		txHdrs: make([]mmsghdr, mmsgBatch), txIovs: make([]syscall.Iovec, mmsgBatch),
		rxBufs: make([][]byte, mmsgBatch), txBufs: make([][]byte, mmsgBatch)}
	b.dst.Family = syscall.AF_INET
	b.dst.Addr = dst.Addr().As4()
	p := dst.Port()
	b.dst.Port = p<<8 | p>>8 // network byte order
	for i := range b.rxBufs {
		b.rxBufs[i] = make([]byte, 4096)
		b.rxIovs[i].Base = &b.rxBufs[i][0]
		b.rxIovs[i].SetLen(len(b.rxBufs[i]))
		b.rxHdrs[i].hdr.Iov = &b.rxIovs[i]
		b.rxHdrs[i].hdr.Iovlen = 1
		b.txHdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&b.dst))
		b.txHdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(b.dst))
		b.txHdrs[i].hdr.Iov = &b.txIovs[i]
		b.txHdrs[i].hdr.Iovlen = 1
	}
	return b, nil
}

// read blocks until at least one datagram arrives and returns those read.
func (b *batchIO) read() ([][]byte, error) {
	var n int
	var errno syscall.Errno
	err := b.rc.Read(func(fd uintptr) bool {
		r, _, e := syscall.Syscall6(b.recv, fd, uintptr(unsafe.Pointer(&b.rxHdrs[0])),
			mmsgBatch, syscall.MSG_DONTWAIT, 0, 0)
		if e == syscall.EAGAIN {
			return false
		}
		n, errno = int(r), e
		return true
	})
	if err != nil {
		return nil, err
	}
	if errno != 0 {
		return nil, fmt.Errorf("loadgen: recvmmsg: %w", errno)
	}
	b.rx = b.rx[:0]
	for i := 0; i < n; i++ {
		b.rx = append(b.rx, b.rxBufs[i][:b.rxHdrs[i].n])
	}
	return b.rx, nil
}

// queue copies one datagram into the send batch, flushing a full batch.
func (b *batchIO) queue(d []byte) {
	i := b.txQueued
	b.txBufs[i] = append(b.txBufs[i][:0], d...)
	b.txIovs[i].Base = &b.txBufs[i][0]
	b.txIovs[i].SetLen(len(d))
	b.txQueued++
	if b.txQueued == mmsgBatch {
		b.flush()
	}
}

// flush sends the queued datagrams. A failed send is a lost datagram: the
// generator's retransmission timer covers it.
func (b *batchIO) flush() {
	for sent := 0; sent < b.txQueued; {
		var n int
		var errno syscall.Errno
		err := b.rc.Write(func(fd uintptr) bool {
			r, _, e := syscall.Syscall6(b.send, fd, uintptr(unsafe.Pointer(&b.txHdrs[sent])),
				uintptr(b.txQueued-sent), syscall.MSG_DONTWAIT, 0, 0)
			if e == syscall.EAGAIN {
				return false
			}
			n, errno = int(r), e
			return true
		})
		if err != nil || errno != 0 || n <= 0 {
			break
		}
		sent += n
	}
	b.txQueued = 0
}
