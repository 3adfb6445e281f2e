package storage

import (
	"os"
	"syscall"
)

// datasync flushes f's data, and of its metadata only what reading the
// data back needs: fdatasync(2).
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err != syscall.EINTR {
			if err != nil {
				return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
			}
			return nil
		}
	}
}
