// Subcommands of the `wss` command-line tool.
//
//   wss generate  --system liberty --out log.txt [--seed N] [--cap N]
//                 [--chatter N] [--compressed] [--per-source]
//   wss anonymize --in log.txt --out anon.txt [--seed N]
//   wss mine      --in log.txt [--support N] [--skip N]
//   wss tables    [--which 1..6] [--threads N|auto]
//   wss study     [--system NAME|all] [--threads N|auto]
//                 [--threshold 5.0] [--seed N] [--cap N] [--chatter N]
//                 [--split-by system|category|time --num-splits N
//                  --manifest-dir DIR]  plan a distributed study
//   wss worker    <id> --manifest-dir DIR [--stale-after SEC]
//                 [--threads N|auto]  claim + compute one assignment
//   wss merge     --manifest-dir DIR [--out DIR]  fold worker partials
//                 into the single-process tables/figures
//   wss stream    --system liberty [--threshold 5.0]
//                 [--in log.txt [--year 2004] |
//                  --seed N --cap N --chatter N --speed N]
//                 [--checkpoint PATH] [--restore PATH] [--max-events N]
//                 [--emit PATH] [--refresh N] [--window SEC]
//                 SIGINT/SIGTERM pause gracefully (checkpoint + report)
//   wss serve     --tcp PORT[:TENANT],... [--udp PORT:TENANT,...]
//                 [--tenant NAME:SYSTEM[:YEAR],...] [--http PORT]
//                 [--bind HOST] [--queue N] [--threshold SEC]
//                 [--window SEC] [--checkpoint-dir DIR] [--max-frame N]
//                 [--drain-grace SEC]  multi-tenant network ingest
//                 server; SIGTERM drains, SIGHUP re-exports --metrics
//
// `wss generate` additionally accepts --sink udp://H:P|tcp://H:P to
// send the replayed stream over the network instead of to a file
// ([--tenant NAME] [--framing nl|len] [--loss-base P]
//  [--loss-contention P] [--lossless] [--loss-seed N]).
//
// Every command additionally accepts --metrics FILE (observability
// snapshot on exit: Prometheus text for .prom, JSON otherwise).
//
// Each command is a function of (Args, ostream) so tests can drive
// them without a process boundary; wss_main.cpp is a thin shell.
#pragma once

#include <ostream>

#include "cli/args.hpp"

namespace wss::cli {

/// Dispatches to the subcommand; returns a process exit code. Usage
/// and error text go to `err`, results to `out`.
int run(const Args& args, std::ostream& out, std::ostream& err);

/// Individual commands (exposed for tests).
int cmd_generate(const Args& args, std::ostream& out, std::ostream& err);
int cmd_anonymize(const Args& args, std::ostream& out, std::ostream& err);
int cmd_tables(const Args& args, std::ostream& out, std::ostream& err);
int cmd_study(const Args& args, std::ostream& out, std::ostream& err);
int cmd_mine(const Args& args, std::ostream& out, std::ostream& err);
int cmd_stream(const Args& args, std::ostream& out, std::ostream& err);
int cmd_serve(const Args& args, std::ostream& out, std::ostream& err);
int cmd_worker(const Args& args, std::ostream& out, std::ostream& err);
int cmd_merge(const Args& args, std::ostream& out, std::ostream& err);

/// Prints usage.
void print_usage(std::ostream& os);

}  // namespace wss::cli
