// lazytree_lint: repo-specific static analysis for protocol rules the
// compiler cannot enforce.
//
//   1. Wire coverage — every field of Message / Action / NodeSnapshot must
//      be written by the encoder walk and read by the decoder. (Encode and
//      EncodedSize share one templated walk; the lint verifies that
//      structural guarantee still holds, so a field covered by the encoder
//      is covered by the size counter by construction.)
//   2. Dispatch totality — every ActionKind enumerator must appear in the
//      BaseProtocol::Handle dispatch switch, in ActionKindName, and in the
//      commutativity classification OrderClassOf.
//   3. Concurrency confinement — std::mutex / std::shared_mutex /
//      std::condition_variable must not appear outside the
//      approved transport/infrastructure files. Protocol and core code is
//      single-threaded per processor by design (§1.1); a stray lock there
//      is a smell that the execution model was violated. An approved
//      entry naming a file that no longer exists is itself a finding.
//   4. Commutativity soundness — the ActionsCommute relation (linked in
//      from lazytree_msg) is re-checked at runtime over every pair:
//      total, symmetric, consistent with IsUpdateKind, ordered classes
//      non-self-commuting.
//   5. Atomics discipline — every std::atomic access spells its memory
//      order, and every order stronger than relaxed is justified by an
//      allowlist entry. An entry whose symbol has no such access left in
//      its file is itself a finding.
//
// Usage:
//   lazytree_lint --root <repo-root>        # lint the tree (ctest tier-1)
//   lazytree_lint --self-test --root <...>  # prove checkers fire on the
//                                           # crafted fixtures
//
// Exit status 0 = clean, 1 = findings, 2 = usage/IO error.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "src/msg/action.h"

namespace lazytree::lint {
namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string file;
  std::string rule;
  std::string message;
};

class Report {
 public:
  void Add(std::string file, std::string rule, std::string message) {
    findings_.push_back({std::move(file), std::move(rule),
                         std::move(message)});
  }
  const std::vector<Finding>& findings() const { return findings_; }
  size_t Print() const {
    for (const Finding& f : findings_) {
      std::fprintf(stderr, "%s: [%s] %s\n", f.file.c_str(), f.rule.c_str(),
                   f.message.c_str());
    }
    return findings_.size();
  }

 private:
  std::vector<Finding> findings_;
};

std::optional<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Strips // comments (string literals in the linted sources never contain
/// "//", which keeps this simple parser honest enough).
std::string StripLineComments(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
    } else {
      out.push_back(text[i++]);
    }
  }
  return out;
}

/// Body of the brace block that starts at the first '{' at or after `from`;
/// empty when unbalanced.
std::string BraceBlock(const std::string& text, size_t from) {
  size_t open = text.find('{', from);
  if (open == std::string::npos) return "";
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}') {
      if (--depth == 0) return text.substr(open + 1, i - open - 1);
    }
  }
  return "";
}

/// Body of `struct <name> {...}` in `text`; empty when absent.
std::string StructBody(const std::string& text, const std::string& name) {
  std::regex decl("struct\\s+" + name + "\\s*\\{");
  std::smatch m;
  if (!std::regex_search(text, m, decl)) return "";
  return BraceBlock(text, static_cast<size_t>(m.position(0)));
}

/// Body of the function whose signature matches `signature_re`.
std::string FunctionBody(const std::string& text,
                         const std::string& signature_re) {
  std::regex decl(signature_re);
  std::smatch m;
  if (!std::regex_search(text, m, decl)) return "";
  return BraceBlock(text, static_cast<size_t>(m.position(0)) + m.length(0));
}

/// Data-member names declared in a struct body. Skips functions (any line
/// containing '('), nested types, usings, and access specifiers.
std::vector<std::string> FieldNames(const std::string& body) {
  std::vector<std::string> fields;
  std::istringstream lines(StripLineComments(body));
  std::string line;
  int nested_depth = 0;
  std::regex member(
      R"(^\s*[A-Za-z_][\w:<>,\s\*&]*[\s&\*]([A-Za-z_]\w*)\s*(\[\s*\d+\s*\])?\s*(=[^;]*)?;\s*$)");
  while (std::getline(lines, line)) {
    // Track nested enum/struct blocks so their members are not counted.
    for (char c : line) {
      if (c == '{') ++nested_depth;
      if (c == '}') --nested_depth;
    }
    if (nested_depth > 0) continue;
    if (line.find('(') != std::string::npos) continue;  // function decl
    if (std::regex_search(line,
                          std::regex("^\\s*(enum|struct|class|using|friend|"
                                     "static|public|private|protected)\\b"))) {
      continue;
    }
    std::smatch m;
    if (std::regex_match(line, m, member)) fields.push_back(m[1]);
  }
  return fields;
}

// ---------------------------------------------------------------------------
// Check 1: wire coverage.
// ---------------------------------------------------------------------------

struct WireSources {
  std::string action_h;   // defines Action + NodeSnapshot
  std::string message_h;  // defines Message
  std::string wire_cc;    // encoder / decoder walks
};

void CheckWireCoverage(const WireSources& src, Report& report) {
  struct StructSpec {
    const char* struct_name;
    const std::string* header;
    const char* header_name;
    std::string var;        // receiver variable in the wire walks
    std::string encode_fn;  // signature regex
    std::string decode_fn;
  };
  const StructSpec specs[] = {
      {"NodeSnapshot", &src.action_h, "action.h", "s",
       R"(void\s+EncodeSnapshotTo\s*\()",
       R"(StatusOr<NodeSnapshot>\s+DecodeSnapshot\s*\()"},
      {"Action", &src.action_h, "action.h", "a",
       R"(void\s+EncodeActionTo\s*\()",
       R"(StatusOr<Action>\s+DecodeAction\s*\()"},
      {"Message", &src.message_h, "message.h", "m",
       R"(void\s+EncodeMessageTo\s*\()",
       R"(StatusOr<Message>\s+DecodeMessage\s*\()"},
  };

  for (const StructSpec& spec : specs) {
    const std::string body = StructBody(*spec.header, spec.struct_name);
    if (body.empty()) {
      report.Add(spec.header_name, "wire-coverage",
                 std::string("struct ") + spec.struct_name + " not found");
      continue;
    }
    const std::string encode =
        StripLineComments(FunctionBody(src.wire_cc, spec.encode_fn));
    const std::string decode =
        StripLineComments(FunctionBody(src.wire_cc, spec.decode_fn));
    if (encode.empty() || decode.empty()) {
      report.Add("wire.cc", "wire-coverage",
                 std::string("encoder or decoder for ") + spec.struct_name +
                     " not found");
      continue;
    }
    for (const std::string& field : FieldNames(body)) {
      // `Message::actions` round-trips as `m.actions` in both directions;
      // every other field is referenced as <var>.<field>.
      const std::regex use("\\b" + spec.var + "\\.(" + field + ")\\b");
      if (!std::regex_search(encode, use)) {
        report.Add("wire.cc", "wire-coverage",
                   std::string(spec.struct_name) + "::" + field +
                       " is never written by the encoder walk (add it to "
                       "Encode" +
                       spec.struct_name + "To; EncodedSize follows for "
                       "free)");
      }
      if (!std::regex_search(decode, use)) {
        report.Add("wire.cc", "wire-coverage",
                   std::string(spec.struct_name) + "::" + field +
                       " is never read by the decoder (add it to Decode" +
                       spec.struct_name + ")");
      }
    }
  }

  // Encode/EncodedSize symmetry is structural: EncodedSize must run the
  // exact same walk (EncodeMessageTo against the counting sink). If that
  // pattern is ever broken the two can drift silently — fail loudly here.
  const std::string size_fn =
      StripLineComments(FunctionBody(src.wire_cc, R"(size_t\s+EncodedSize\s*\()"));
  if (size_fn.find("EncodeMessageTo") == std::string::npos) {
    report.Add("wire.cc", "wire-size-symmetry",
               "EncodedSize no longer reuses the EncodeMessageTo walk; "
               "size accounting can drift from the encoder");
  }
}

// ---------------------------------------------------------------------------
// Check 2: dispatch totality.
// ---------------------------------------------------------------------------

std::vector<std::string> ActionKindEnumerators(const std::string& action_h) {
  std::vector<std::string> kinds;
  std::regex decl(R"(enum\s+class\s+ActionKind\s*:\s*uint8_t\s*\{)");
  std::smatch m;
  if (!std::regex_search(action_h, m, decl)) return kinds;
  const std::string body =
      StripLineComments(BraceBlock(action_h, static_cast<size_t>(m.position(0))));
  std::regex name(R"(\b(k[A-Z]\w*)\b)");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), name);
       it != std::sregex_iterator(); ++it) {
    std::string kind = (*it)[1];
    if (kind == "kInvalid" || kind == "kMaxKind") continue;
    kinds.push_back(std::move(kind));
  }
  return kinds;
}

void CheckDispatchTotality(const std::string& action_h,
                           const std::string& action_cc,
                           const std::string& base_cc,
                           const std::string& processor_cc, Report& report) {
  const std::vector<std::string> kinds = ActionKindEnumerators(action_h);
  if (kinds.empty()) {
    report.Add("action.h", "dispatch-totality",
               "could not parse ActionKind enumerators");
    return;
  }
  struct Table {
    const char* what;
    const char* file;
    std::string body;
  };
  // The dispatch surface is BaseProtocol::Handle plus the kReturnValue
  // interception in Processor::HandleAction (completions never reach the
  // protocol layer; they resolve client ops in the tracker — Deliver and
  // DeliverBatch both funnel through HandleAction).
  const Table tables[] = {
      {"the BaseProtocol::Handle / Processor::Deliver dispatch",
       "protocol/base.cc",
       StripLineComments(
           FunctionBody(base_cc, R"(void\s+BaseProtocol::Handle\s*\()") +
           FunctionBody(processor_cc, R"(void\s+Processor::Deliver\s*\()") +
           FunctionBody(processor_cc,
                        R"(void\s+Processor::HandleAction\s*\()"))},
      {"ActionKindName", "msg/action.cc",
       StripLineComments(FunctionBody(
           action_cc, R"(const\s+char\*\s+ActionKindName\s*\()"))},
      {"OrderClassOf commutativity classification", "msg/action.h",
       StripLineComments(FunctionBody(
           action_h, R"(constexpr\s+OrderClass\s+OrderClassOf\s*\()"))},
  };
  for (const Table& table : tables) {
    if (table.body.empty()) {
      report.Add(table.file, "dispatch-totality",
                 std::string(table.what) + " not found");
      continue;
    }
    for (const std::string& kind : kinds) {
      const std::regex use("\\bActionKind::" + kind + "\\b");
      if (!std::regex_search(table.body, use)) {
        report.Add(table.file, "dispatch-totality",
                   "ActionKind::" + kind + " is not handled by " +
                       table.what);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 3: concurrency-primitive confinement.
// ---------------------------------------------------------------------------

/// Files allowed to use blocking primitives, relative to the repo root.
/// Everything else under src/ runs on exactly one processor worker thread
/// (or is called only at quiescence) and must stay lock-free.
const char* const kApprovedConcurrencyFiles[] = {
    // The primitives themselves.
    "src/util/threading.h", "src/util/threading.cc",
    "src/util/mpsc_queue.h",
    // Worker-thread CPU pinning (pthread affinity syscalls only). The
    // QueueManager outbox is deliberately NOT here: it shares no state
    // across threads (a thread_local pointer says whose delivery scope
    // the calling thread has open), and it must stay that way.
    "src/util/affinity.h", "src/util/affinity.cc",
    // The thread transport.
    "src/net/thread_network.h", "src/net/thread_network.cc",
    // The reliable-delivery layer: processor p's worker owns the channel
    // halves tx(p, *) and rx(*, p) and fires their timers itself, behind
    // one shard mutex per processor that only the quiescence-time callers
    // and rare foreign-thread sends also take; processors still see the
    // §1.1 single-threaded delivery model above it.
    "src/net/reliable.h", "src/net/reliable.cc",
    // Client-thread completion handoff.
    "src/server/op_tracker.h", "src/server/op_tracker.cc",
    // Cross-thread history collection (quiescence-read, append-live).
    "src/history/history.h", "src/history/history.cc",
    // Shared-memory baseline trees are latch-based by design (§1.1 foil).
    "src/blink/blink_tree.h", "src/blink/blink_tree.cc",
    "src/blink/lock_tree.h", "src/blink/lock_tree.cc",
};

void CheckConcurrencyConfinement(const fs::path& root,
                                 std::span<const char* const> approved_files,
                                 Report& report) {
  // Also bans raw pthread blocking/affinity calls: everything threaded
  // must go through the approved wrappers so TSan and the execution-model
  // audit see one surface.
  const std::regex banned(
      R"(\bstd::(mutex|shared_mutex|recursive_mutex|condition_variable(_any)?|timed_mutex)\b|\bpthread_(mutex|cond|rwlock|barrier|spin)_\w+\s*\(|\bpthread_setaffinity_np\s*\()");
  const std::set<std::string> approved(approved_files.begin(),
                                       approved_files.end());
  // A stale entry would silently approve whatever file takes its name.
  for (const std::string& rel : approved) {
    if (!fs::exists(root / rel)) {
      report.Add(rel, "concurrency-confinement",
                 "kApprovedConcurrencyFiles names a file that does not "
                 "exist; delete the entry");
    }
  }
  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string rel =
        fs::relative(entry.path(), root).generic_string();
    if (approved.contains(rel)) continue;
    auto text = ReadFile(entry.path());
    if (!text) continue;
    const std::string code = StripLineComments(*text);
    std::smatch m;
    if (std::regex_search(code, m, banned)) {
      report.Add(rel, "concurrency-confinement",
                 "uses blocking primitive '" + m.str() +
                     "' outside the approved transport files; processor "
                     "code is single-threaded per the §1.1 execution "
                     "model (extend kApprovedConcurrencyFiles in "
                     "lazytree_lint only with a design justification)");
    }
  }
}

// ---------------------------------------------------------------------------
// Check 4: commutativity-table soundness (runtime re-check of the
// static_asserted properties, over the linked-in real table).
// ---------------------------------------------------------------------------

void CheckCommutativityTable(Report& report) {
  const int n = static_cast<int>(ActionKind::kMaxKind);
  for (int i = 0; i <= n; ++i) {
    const auto a = static_cast<ActionKind>(i);
    if ((OrderClassOf(a) != OrderClass::kNonUpdate) != IsUpdateKind(a)) {
      report.Add("msg/action.h", "commutativity",
                 std::string("OrderClassOf disagrees with IsUpdateKind for ") +
                     ActionKindName(a));
    }
    if (IsUpdateKind(a) && OrderClassOf(a) != OrderClass::kLazy &&
        ActionsCommute(a, a)) {
      report.Add("msg/action.h", "commutativity",
                 std::string("ordered action ") + ActionKindName(a) +
                     " must not commute with itself");
    }
    for (int j = 0; j <= n; ++j) {
      const auto b = static_cast<ActionKind>(j);
      if (ActionsCommute(a, b) != ActionsCommute(b, a)) {
        report.Add("msg/action.h", "commutativity",
                   std::string("asymmetric pair (") + ActionKindName(a) +
                       ", " + ActionKindName(b) + ")");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Check 5: atomics discipline.
//
// Every access to a declared std::atomic in src/ must spell its
// std::memory_order explicitly — bare load()/store()/fetch_add()/
// compare_exchange() (which silently default to seq_cst), ++/--, and
// plain assignment are all flagged. On top of that, any ordering
// stronger than relaxed must be justified: the (file, symbol) pair has
// to appear in kAtomicOrderAllowlist with a rationale naming the
// acquire/release pairing it implements. Relaxed accesses are free —
// they claim nothing. Fences (std::atomic_signal_fence /
// atomic_thread_fence) are out of scope, as are accesses through
// references or aliases of an atomic (the scan keys on declared names).
// ---------------------------------------------------------------------------

struct AtomicOrderJustification {
  const char* file;    ///< file the access appears in, relative to root
  const char* symbol;  ///< the atomic member/global accessed
  const char* rationale;
};

/// Every non-relaxed atomic access in src/ must map to one of these.
/// Add entries only with the pairing written out — "it felt safer" is
/// exactly the drift this pass exists to stop.
const AtomicOrderJustification kAtomicOrderAllowlist[] = {
    {"src/util/mpsc_queue.h", "closed_",
     "Parker::Close's release store pairs with the consumer's acquire "
     "poll while it spins, so a closed parker stops spinning and takes "
     "the locked path that reports the close"},
    {"src/util/mpsc_queue.h", "parked_",
     "seq_cst store before the consumer's last probe of its rings (the "
     "inbox and the client queue alike) pairs with WakeIfParked's seq_cst "
     "load after a producer's publish to either (Dekker): the producer "
     "sees the park and pokes, or the probe sees the item"},
    {"src/util/mpsc_queue.h", "lap",
     "a producer's seq_cst publish store pairs with the consumer's "
     "seq_cst probe (the park handshake) and acquire read of the item; "
     "the consumer's release store that frees a cell pairs with the next "
     "lap's producer acquire load before it overwrites the item"},
    {"src/util/mpsc_queue.h", "claim",
     "seq_cst close (fetch_or) by a linker or by Close pairs with the "
     "consumer's seq_cst read that steps to the next ring only once the "
     "closed ring is drained, and with DrainClosed's acquire read"},
    {"src/util/mpsc_queue.h", "successor",
     "seq_cst link CAS of a grown ring (its first item already written) "
     "pairs with the consumer's and Close's seq_cst reads; ordered "
     "against closed_ so Close never misses a ring linked during it"},
    {"src/util/mpsc_queue.h", "tail_ring_",
     "acq_rel CAS that moves producers to a linked ring pairs with the "
     "producers' acquire load of the ring they push into"},
    {"src/util/mpsc_queue.h", "shut_",
     "seq_cst store in Close before its walk pairs with a linker's "
     "seq_cst load after its link: one of them closes the new ring; "
     "and with a growing producer's seq_cst re-check (see growing_)"},
    {"src/util/mpsc_queue.h", "growing_",
     "a producer's seq_cst increment before its shut_ re-check pairs "
     "with DrainClosed's seq_cst load after Close's shut_ store (Dekker): "
     "the producer sees the close and gives up, or the consumer sees it "
     "growing and waits; the release decrement after its link pairs with "
     "that load, so a zero count implies the linked ring is visible"},
    {"src/msg/action.h", "refs",
     "acq_rel decrement of a shared snapshot's reference count: the "
     "release half orders each holder's reads of the immutable snapshot "
     "before its drop, the acquire half of the last drop orders them all "
     "before the delete (increments are relaxed: the copier already "
     "holds a reference)"},
    {"src/server/op_tracker.cc", "tag",
     "a slot's release store (live after Begin filled the callback; "
     "empty after a claim took it) pairs with the acquire CAS of the next "
     "claimer (Complete / FailAllPending claim live, Begin claims empty), "
     "so the callback is handed over whole and run exactly once"},
    {"src/server/op_tracker.cc", "mask_",
     "release store after Grow installs a segment pairs with the acquire "
     "load before indexing: a visible table size implies its segments"},
    {"src/server/op_tracker.cc", "published_",
     "Begin's release increment after its slot is live pairs with the "
     "walks' acquire load: a counted publish implies the live slot"},
    {"src/server/op_tracker.cc", "next_seq_",
     "the walks' acquire load follows their acquire load of published_, "
     "so every counted publish has a seq below the loaded next seq"},
    {"src/net/thread_network.cc", "started_",
     "acq_rel CAS makes Start's thread spawning happen-before any "
     "acquire observer; Register's acquire load pairs with it"},
    {"src/net/thread_network.cc", "stopped_",
     "acq_rel CAS ensures exactly one caller runs Stop's teardown and "
     "later observers see the joined state"},
    {"src/net/thread_network.cc", "inflight_",
     "acq_rel decrement pairs with the acquire read in the quiescence "
     "wait: a zero in-flight count implies all deliveries completed"},
    {"src/blink/blink_tree.cc", "root_",
     "release store of a new root pairs with acquire loads in descents "
     "so a reader never sees the root before its initialized contents"},
    {"src/workload/distributions.h", "head_",
     "acq_rel reservation pairs with the sampler's acquire read: a "
     "visible head implies the slots below it were published"},
    {"src/workload/distributions.h", "ring_",
     "release publish of a slot pairs with the sampler's acquire load so "
     "a sampled key is never torn or ahead of its publication"},
    {"src/workload/driver.cc", "done",
     "the completion callback's release store pairs with the driver "
     "thread's acquire poll: a set flag implies the slot's status, value "
     "and hops are visible"},
};

/// Balanced-paren argument text for the call whose '(' is at `open`;
/// empty-and-unterminated returns what was scanned.
std::string ParenArgs(const std::string& text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')') {
      if (--depth == 0) return text.substr(open + 1, i - open - 1);
    }
  }
  return text.substr(open + 1);
}

/// Names of std::atomic<...> variables declared in `code` (member or
/// global). Works from the declaration text between "std::atomic<" and
/// the terminating ';', truncated at the brace initializer: the last
/// identifier standing is the variable name, which holds for plain
/// members, brace-initialized members, and atomics nested in
/// std::vector / std::array declarations.
void CollectAtomicNames(const std::string& code,
                        std::set<std::string>* names) {
  static const std::regex ident(R"([A-Za-z_]\w*)");
  size_t pos = 0;
  while ((pos = code.find("std::atomic", pos)) != std::string::npos) {
    const size_t after = pos + 11;  // strlen("std::atomic")
    if (after >= code.size() || code[after] != '<') {
      pos = after;  // atomic_signal_fence / atomic_flag / prose
      continue;
    }
    const size_t semi = code.find(';', pos);
    if (semi == std::string::npos) break;
    std::string decl = code.substr(pos, semi - pos);
    int angle = 0;
    for (size_t i = 0; i < decl.size(); ++i) {
      if (decl[i] == '<') ++angle;
      if (decl[i] == '>' && angle > 0) --angle;
      if (decl[i] == '{' && angle == 0) {
        decl.resize(i);
        break;
      }
    }
    std::string last;
    for (auto it = std::sregex_iterator(decl.begin(), decl.end(), ident);
         it != std::sregex_iterator(); ++it) {
      last = it->str();
    }
    // Reject declarator-less matches (e.g. a cast or template argument):
    // a real declaration's last identifier is never the template keyword.
    if (!last.empty() && last != "atomic") names->insert(last);
    pos = semi;
  }
}

void CheckAtomicsDiscipline(
    const fs::path& root,
    std::span<const AtomicOrderJustification> allowlist, Report& report) {
  struct SourceFile {
    std::string rel;
    std::string stem;  ///< path without extension: groups X.h with X.cc
    std::string code;
  };
  std::vector<SourceFile> sources;
  std::set<std::string> atomics;
  std::map<std::string, std::set<std::string>> atomics_by_stem;
  for (const auto& entry : fs::recursive_directory_iterator(root / "src")) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string rel =
        fs::relative(entry.path(), root).generic_string();
    auto text = ReadFile(entry.path());
    if (!text) continue;
    sources.push_back({rel, rel.substr(0, rel.rfind('.')),
                       StripLineComments(*text)});
    CollectAtomicNames(sources.back().code,
                       &atomics_by_stem[sources.back().stem]);
    atomics.insert(atomics_by_stem[sources.back().stem].begin(),
                   atomics_by_stem[sources.back().stem].end());
  }

  // Allowlist entries some non-relaxed access leaned on; the rest are
  // stale.
  std::set<const AtomicOrderJustification*> used;
  auto justified = [&](const std::string& rel, const std::string& symbol) {
    for (const AtomicOrderJustification& j : allowlist) {
      if (rel == j.file && symbol == j.symbol) {
        used.insert(&j);
        return true;
      }
    }
    return false;
  };

  static const std::regex access(
      R"(([A-Za-z_]\w*)\s*(\[[^\][]*\])?\s*\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\()");
  static const std::regex order_use(R"(memory_order_(\w+))");
  for (const SourceFile& src : sources) {
    for (auto it = std::sregex_iterator(src.code.begin(), src.code.end(),
                                        access);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1];
      const std::string method = (*it)[3];
      if (!atomics.contains(name)) continue;  // e.g. NodeStore::store()
      const std::string args = ParenArgs(
          src.code, static_cast<size_t>(it->position(0)) + it->length(0) - 1);
      if (args.find("memory_order") == std::string::npos) {
        report.Add(src.rel, "atomics-discipline",
                   name + "." + method + "(...) without an explicit "
                   "std::memory_order (bare accesses default to seq_cst "
                   "silently; spell the intended ordering)");
        continue;
      }
      for (auto ord = std::sregex_iterator(args.begin(), args.end(),
                                           order_use);
           ord != std::sregex_iterator(); ++ord) {
        const std::string strength = (*ord)[1];
        if (strength == "relaxed") continue;
        if (!justified(src.rel, name)) {
          report.Add(src.rel, "atomics-discipline",
                     name + "." + method + " uses memory_order_" + strength +
                         " without a kAtomicOrderAllowlist entry; add "
                         "(file, symbol, rationale) to lazytree_lint.cc "
                         "naming the acquire/release pairing, or relax it");
        }
        break;  // one finding per access site
      }
    }
    // Operator forms re-introduce implicit seq_cst through the back door:
    // ++x / x++ / --x / x-- and plain or compound assignment to an atomic.
    // Scoped to names declared in this file's own header/impl pair: the
    // global set would false-positive on unrelated members that happen to
    // share a name (e.g. a plain size_ elsewhere vs. the atomic one).
    for (const std::string& name : atomics_by_stem[src.stem]) {
      const std::regex op_form("(\\+\\+|--)\\s*" + name + "\\b|\\b" + name +
                               "\\s*(\\+\\+|--|[-+&|^]?=[^=])");
      for (auto it = std::sregex_iterator(src.code.begin(), src.code.end(),
                                          op_form);
           it != std::sregex_iterator(); ++it) {
        // Exclude comparisons (== != <= >=) misparsed as assignment.
        const size_t at = static_cast<size_t>(it->position(0));
        if (at > 0 && std::string("=!<>").find(src.code[at - 1]) !=
                          std::string::npos) {
          continue;
        }
        const std::string snippet = it->str();
        if (snippet.find('=') != std::string::npos &&
            snippet.find("==") != std::string::npos) {
          continue;
        }
        report.Add(src.rel, "atomics-discipline",
                   "operator access '" + snippet + "' on std::atomic " +
                       name + " is an implicit seq_cst op; use an explicit "
                       "load/store/fetch with a spelled memory_order");
      }
    }
  }
  for (const AtomicOrderJustification& j : allowlist) {
    if (!used.contains(&j)) {
      report.Add(j.file, "atomics-discipline",
                 std::string("stale kAtomicOrderAllowlist entry: ") +
                     j.symbol + " has no non-relaxed access left in " +
                     j.file + "; delete the entry");
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

int LintTree(const fs::path& root) {
  Report report;

  auto action_h = ReadFile(root / "src/msg/action.h");
  auto action_cc = ReadFile(root / "src/msg/action.cc");
  auto message_h = ReadFile(root / "src/msg/message.h");
  auto wire_cc = ReadFile(root / "src/msg/wire.cc");
  auto base_cc = ReadFile(root / "src/protocol/base.cc");
  auto processor_cc = ReadFile(root / "src/server/processor.cc");
  if (!action_h || !action_cc || !message_h || !wire_cc || !base_cc ||
      !processor_cc) {
    std::fprintf(stderr, "lazytree_lint: cannot read sources under %s\n",
                 root.string().c_str());
    return 2;
  }

  CheckWireCoverage({*action_h, *message_h, *wire_cc}, report);
  CheckDispatchTotality(*action_h, *action_cc, *base_cc, *processor_cc,
                        report);
  CheckConcurrencyConfinement(root, kApprovedConcurrencyFiles, report);
  CheckCommutativityTable(report);
  CheckAtomicsDiscipline(root, kAtomicOrderAllowlist, report);

  const size_t n = report.Print();
  if (n > 0) {
    std::fprintf(stderr, "lazytree_lint: %zu finding(s)\n", n);
    return 1;
  }
  std::printf("lazytree_lint: clean\n");
  return 0;
}

/// Self-test: the fixtures contain deliberate violations; every checker
/// must fire on its fixture and stay quiet on the real tree's sources.
int SelfTest(const fs::path& root) {
  const fs::path fixtures = root / "tools/lint_fixtures";
  auto fix_action_h = ReadFile(fixtures / "bad_action.h");
  auto fix_wire_cc = ReadFile(fixtures / "bad_wire.cc");
  auto fix_base_cc = ReadFile(fixtures / "bad_base.cc");
  auto real_action_cc = ReadFile(root / "src/msg/action.cc");
  if (!fix_action_h || !fix_wire_cc || !fix_base_cc || !real_action_cc) {
    std::fprintf(stderr, "self-test: cannot read lint_fixtures under %s\n",
                 fixtures.string().c_str());
    return 2;
  }

  int failures = 0;
  auto expect = [&](const char* what, bool ok) {
    std::printf("self-test %-60s %s\n", what, ok ? "PASS" : "FAIL");
    if (!ok) ++failures;
  };

  {
    // bad_wire.cc omits Action::hops from the encoder and
    // NodeSnapshot::parent from the decoder; both must be caught, with
    // the un-tampered fields staying quiet.
    Report r;
    CheckWireCoverage({*fix_action_h, *fix_action_h, *fix_wire_cc}, r);
    bool hops = false, parent = false;
    for (const Finding& f : r.findings()) {
      if (f.message.find("Action::hops") != std::string::npos &&
          f.message.find("encoder") != std::string::npos) {
        hops = true;
      }
      if (f.message.find("NodeSnapshot::parent") != std::string::npos &&
          f.message.find("decoder") != std::string::npos) {
        parent = true;
      }
    }
    expect("wire-coverage catches field missing from encoder", hops);
    expect("wire-coverage catches field missing from decoder", parent);
    expect("wire-coverage reports nothing else",
           r.findings().size() == 2);
  }

  {
    // bad_base.cc's dispatch switch omits kScanOp.
    // Fixture has no Processor::Deliver, so the dispatch surface is the
    // (deliberately incomplete) Handle switch alone.
    Report r;
    CheckDispatchTotality(*fix_action_h, *real_action_cc, *fix_base_cc,
                          *fix_base_cc, r);
    bool scan = false;
    for (const Finding& f : r.findings()) {
      if (f.message.find("kScanOp") != std::string::npos &&
          f.message.find("dispatch") != std::string::npos) {
        scan = true;
      }
    }
    expect("dispatch-totality catches unhandled ActionKind", scan);
  }

  {
    // A mutex planted outside the approved set must be flagged: run the
    // confinement scan over the fixture tree, whose layout mirrors src/,
    // with an approved list that also names a file the tree lacks.
    Report r;
    const char* const approved[] = {"src/util/bad_atomics.h",
                                    "src/util/gone.h"};
    CheckConcurrencyConfinement(fixtures / "tree", approved, r);
    bool found = false, missing = false;
    for (const Finding& f : r.findings()) {
      if (f.file.find("protocol/locked.cc") != std::string::npos) {
        found = true;
      }
      if (f.file == "src/util/gone.h") missing = true;
    }
    expect("concurrency-confinement catches stray std::mutex", found);
    expect("concurrency-confinement catches missing approved file",
           missing);
    expect("concurrency-confinement reports nothing else",
           r.findings().size() == 2);
  }

  {
    // util/bad_atomics.h in the fixture tree plants one of each
    // atomics-discipline violation; all must fire, the relaxed access
    // must not, and nothing else in the fixture tree has atomics. The
    // allowlist plants one stale entry: clean_ has only relaxed accesses.
    Report r;
    const AtomicOrderJustification allowlist[] = {
        {"src/util/bad_atomics.h", "clean_", "planted stale entry"}};
    CheckAtomicsDiscipline(fixtures / "tree", allowlist, r);
    size_t bare = 0, unjustified = 0, operators = 0, clean_hits = 0,
           stale = 0;
    for (const Finding& f : r.findings()) {
      if (f.file.find("bad_atomics.h") == std::string::npos) continue;
      if (f.message.find("stale") != std::string::npos) {
        if (f.message.find("clean_") != std::string::npos) ++stale;
        continue;
      }
      if (f.message.find("clean_") != std::string::npos) ++clean_hits;
      if (f.message.find("without an explicit") != std::string::npos) ++bare;
      if (f.message.find("kAtomicOrderAllowlist") != std::string::npos) {
        ++unjustified;
      }
      if (f.message.find("operator access") != std::string::npos) {
        ++operators;
      }
    }
    expect("atomics-discipline catches bare load/store/fetch", bare == 3);
    expect("atomics-discipline catches unjustified acquire",
           unjustified == 1);
    expect("atomics-discipline catches ++/assignment forms",
           operators == 2);
    expect("atomics-discipline ignores explicit relaxed accesses",
           clean_hits == 0);
    expect("atomics-discipline catches stale allowlist entry", stale == 1);
  }

  {
    // The real tree must be clean (the tier-1 lint test asserts the same;
    // doing it here keeps the self-test meaningful standalone).
    Report r;
    auto action_h = ReadFile(root / "src/msg/action.h");
    auto message_h = ReadFile(root / "src/msg/message.h");
    auto wire_cc = ReadFile(root / "src/msg/wire.cc");
    auto base_cc = ReadFile(root / "src/protocol/base.cc");
    auto processor_cc = ReadFile(root / "src/server/processor.cc");
    CheckWireCoverage({*action_h, *message_h, *wire_cc}, r);
    CheckDispatchTotality(*action_h, *real_action_cc, *base_cc,
                          *processor_cc, r);
    CheckConcurrencyConfinement(root, kApprovedConcurrencyFiles, r);
    CheckCommutativityTable(r);
    CheckAtomicsDiscipline(root, kAtomicOrderAllowlist, r);
    expect("checkers stay quiet on the real tree", r.findings().empty());
    if (!r.findings().empty()) r.Print();
  }

  if (failures > 0) {
    std::fprintf(stderr, "self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("self-test: all checkers fire\n");
  return 0;
}

int Main(int argc, char** argv) {
  fs::path root = ".";
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: lazytree_lint [--self-test] [--root DIR]\n");
      return 2;
    }
  }
  if (!fs::exists(root / "src/msg/action.h")) {
    std::fprintf(stderr, "lazytree_lint: %s is not the lazytree repo root\n",
                 fs::absolute(root).string().c_str());
    return 2;
  }
  return self_test ? SelfTest(root) : LintTree(root);
}

}  // namespace
}  // namespace lazytree::lint

int main(int argc, char** argv) { return lazytree::lint::Main(argc, argv); }
