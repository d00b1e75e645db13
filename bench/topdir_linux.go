package main

import (
	"os"
	"syscall"
	"unsafe"
)

// The inode-flag ioctls of <linux/fs.h> and the flag chattr(1) calls T.
const (
	fsIocGetFlags = 0x80086601
	fsIocSetFlags = 0x40086602
	fsTopdirFl    = 0x00020000
)

// markTopDir sets the "top of directory hierarchies" attribute on dir, so
// that ext4 places every subdirectory made in it in a block group of its
// own choosing instead of next to dir. A filesystem that has no such
// attribute is left as it is: the error is not reported.
func markTopDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	defer f.Close()
	var flags int
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocGetFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return
	}
	flags |= fsTopdirFl
	syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocSetFlags, uintptr(unsafe.Pointer(&flags)))
}
