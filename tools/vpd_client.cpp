// vpd-client — pipe stdin to a `vpdd --listen` socket endpoint.
//
//   vpd-client unix:/run/vpd.sock < requests.ndjson > responses.ndjson
//
// Streams every stdin line to the server while a reader thread prints
// response lines to stdout, so pipelining works exactly like piping into
// a stdin-mode vpdd. On stdin EOF the write side is half-closed and the
// client waits for the remaining responses; exit code 0 means the server
// answered everything and closed cleanly.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "vpd/net/socket.hpp"

int main(int argc, char** argv) {
  using namespace vpd;

  if (argc != 2 || std::strcmp(argv[1], "--help") == 0) {
    std::fprintf(stderr,
                 "usage: %s ADDR\n"
                 "  ADDR  unix:/path/to.sock or tcp:127.0.0.1:PORT\n",
                 argv[0]);
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);

  try {
    net::Connection connection =
        net::connect_to(net::Endpoint::parse(argv[1]));

    std::thread reader([&connection] {
      try {
        std::string response;
        while (connection.read_line(&response)) {
          std::fputs(response.c_str(), stdout);
          std::fputc('\n', stdout);
          std::fflush(stdout);
        }
      } catch (const net::IoError&) {
        // Server vanished; whatever arrived is already printed.
      }
    });

    bool write_failed = false;
    std::string line;
    while (std::getline(std::cin, line)) {
      try {
        connection.write_line(line);
      } catch (const net::IoError& e) {
        std::fprintf(stderr, "vpd-client: %s\n", e.what());
        write_failed = true;
        break;
      }
    }
    connection.shutdown_write();  // tell the server we are done
    reader.join();
    return write_failed ? 1 : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "vpd-client: %s\n", e.what());
    return 1;
  }
}
