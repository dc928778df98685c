package main

// sysSendmmsg is sendmmsg(2), which package syscall does not name.
const sysSendmmsg = 307
