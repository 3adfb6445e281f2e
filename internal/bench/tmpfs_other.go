//go:build !linux

package bench

func onTmpfs(string) bool { return false }
