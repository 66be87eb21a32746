//go:build !linux

package main

import "syscall"

func pinSelf() {}

func childAttr() *syscall.SysProcAttr { return nil }
