//go:build !linux

package main

// markTopDir does nothing where there is no ext4 to steer.
func markTopDir(string) {}
