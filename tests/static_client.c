/*
 * A statically linked TCP client, for the claim that seccomp-notification
 * switching needs nothing from the program's libc.
 *
 *   static_client single|thread-split HOST PORT
 *
 * Sets TCP_NODELAY and SO_RCVBUF 50000 on a TCP socket, connects it to
 * HOST:PORT, echoes one message and reads both options back.  In
 * thread-split mode one thread sets the options and another, started once
 * the first has ended, connects.  Prints one JSON line; errors are errno
 * values, 0 when the call succeeded.
 *
 * Build: gcc -static -pthread -o static_client static_client.c
 */
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

static const char MESSAGE[] = "static client round trip";

static int fd;
static struct sockaddr_in peer;
static int set_err, connect_err;

static void *set_options(void *unused)
{
	int one = 1, rcvbuf = 50000;

	(void)unused;
	if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) ||
	    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)))
		set_err = errno;
	return NULL;
}

static void *connect_peer(void *unused)
{
	(void)unused;
	if (connect(fd, (struct sockaddr *)&peer, sizeof(peer)))
		connect_err = errno;
	return NULL;
}

/* Run fn on a thread of its own and wait for that thread to end. */
static void on_thread(void *(*fn)(void *))
{
	pthread_t t;

	if (pthread_create(&t, NULL, fn, NULL)) {
		perror("pthread_create");
		exit(2);
	}
	pthread_join(t, NULL);
}

/* Send MESSAGE and read it back; the number of bytes that came back. */
static int echo(void)
{
	char buf[sizeof(MESSAGE)];
	ssize_t n;
	size_t got = 0;

	if (write(fd, MESSAGE, sizeof(MESSAGE)) != sizeof(MESSAGE))
		return -1;
	while (got < sizeof(buf)) {
		n = read(fd, buf + got, sizeof(buf) - got);
		if (n <= 0)
			return -1;
		got += n;
	}
	return memcmp(buf, MESSAGE, got) ? -1 : (int)got;
}

static int read_option(int level, int name)
{
	int value = -1;
	socklen_t len = sizeof(value);

	getsockopt(fd, level, name, &value, &len);
	return value;
}

int main(int argc, char **argv)
{
	int split, echoed = -1;

	if (argc != 4) {
		fprintf(stderr, "usage: %s single|thread-split HOST PORT\n",
			argv[0]);
		return 2;
	}
	split = strcmp(argv[1], "thread-split") == 0;
	peer.sin_family = AF_INET;
	peer.sin_port = htons(atoi(argv[3]));
	if (inet_pton(AF_INET, argv[2], &peer.sin_addr) != 1) {
		fprintf(stderr, "bad address %s\n", argv[2]);
		return 2;
	}
	fd = socket(AF_INET, SOCK_STREAM, 0);
	if (fd < 0) {
		perror("socket");
		return 2;
	}
	if (split) {
		on_thread(set_options);
		on_thread(connect_peer);
	} else {
		set_options(NULL);
		connect_peer(NULL);
	}
	if (!connect_err)
		echoed = echo();
	printf("{\"op\": \"static_client\", \"mode\": \"%s\", \"set_err\": %d, "
	       "\"connect_err\": %d, \"echoed\": %d, \"nodelay\": %d, "
	       "\"rcvbuf\": %d}\n", argv[1], set_err, connect_err, echoed,
	       read_option(IPPROTO_TCP, TCP_NODELAY),
	       read_option(SOL_SOCKET, SO_RCVBUF));
	close(fd);
	return 0;
}
