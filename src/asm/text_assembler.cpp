#include "asm/text_assembler.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "asm/assembler.h"
#include "common/error.h"
#include "isa/op_table.h"

namespace indexmac {
namespace {

using isa::Arg;

struct Operand {
  enum class Kind { kXReg, kFReg, kVReg, kImm, kMem, kSymbol } kind;
  unsigned reg = 0;       // kXReg/kFReg/kVReg; base register for kMem
  std::int64_t imm = 0;   // kImm; offset for kMem
  std::string symbol;     // kSymbol
};

/// "<prefix><n>" with n in 0..31, e.g. "v12".
std::optional<unsigned> parse_prefixed_reg(const std::string& t, char prefix) {
  if (t.size() < 2 || t[0] != prefix) return std::nullopt;
  unsigned n = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(t[i]))) return std::nullopt;
    n = n * 10 + static_cast<unsigned>(t[i] - '0');
    if (n >= 32) return std::nullopt;  // before n can wrap
  }
  return n;
}

std::optional<unsigned> parse_xreg_name(const std::string& t) {
  static const std::map<std::string, unsigned> kAbi = {
      {"zero", 0}, {"ra", 1},  {"sp", 2},   {"gp", 3},   {"tp", 4},  {"t0", 5},  {"t1", 6},
      {"t2", 7},   {"s0", 8},  {"fp", 8},   {"s1", 9},   {"a0", 10}, {"a1", 11}, {"a2", 12},
      {"a3", 13},  {"a4", 14}, {"a5", 15},  {"a6", 16},  {"a7", 17}, {"s2", 18}, {"s3", 19},
      {"s4", 20},  {"s5", 21}, {"s6", 22},  {"s7", 23},  {"s8", 24}, {"s9", 25}, {"s10", 26},
      {"s11", 27}, {"t3", 28}, {"t4", 29},  {"t5", 30},  {"t6", 31}};
  if (auto it = kAbi.find(t); it != kAbi.end()) return it->second;
  return parse_prefixed_reg(t, 'x');
}

/// Splits "off(reg)" into offset text and register text.
std::optional<std::pair<std::string, std::string>> split_mem(const std::string& t) {
  const std::size_t open = t.find('(');
  if (open == std::string::npos || t.back() != ')') return std::nullopt;
  return std::make_pair(t.substr(0, open), t.substr(open + 1, t.size() - open - 2));
}

class Parser {
 public:
  explicit Parser(std::uint64_t base) : base_(base) {}

  void parse_line(const std::string& raw, int line_no) {
    line_no_ = line_no;
    std::string line = strip_comment(raw);
    // Handle one optional "label:" prefix, then an optional instruction.
    std::size_t colon = line.find(':');
    if (colon != std::string::npos && line.find('"') == std::string::npos) {
      const std::string name = trim(line.substr(0, colon));
      fail_if(name.empty(), "empty label name");
      bind_label(name);
      line = line.substr(colon + 1);
    }
    line = trim(line);
    if (line.empty()) return;
    parse_instruction(line);
  }

  Program finish() {
    for (const auto& [name, info] : labels_)
      fail_if(!info.bound, "label '" + name + "' used but never defined");
    return asm_.finish(base_);
  }

 private:
  struct LabelInfo {
    Assembler::Label label;
    bool bound = false;
  };

  [[noreturn]] void fail(const std::string& msg) const {
    raise("asm line " + std::to_string(line_no_) + ": " + msg);
  }
  void fail_if(bool cond, const std::string& msg) const {
    if (cond) fail(msg);
  }

  static std::string strip_comment(std::string line) {
    for (const std::string sep : {"#", "//"}) {
      if (const std::size_t p = line.find(sep); p != std::string::npos) line = line.substr(0, p);
    }
    return line;
  }

  static std::string trim(const std::string& s) {
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
  }

  LabelInfo& label(const std::string& name) {
    auto it = labels_.find(name);
    if (it == labels_.end())
      it = labels_.emplace(name, LabelInfo{asm_.new_label(), false}).first;
    return it->second;
  }

  void bind_label(const std::string& name) {
    LabelInfo& info = label(name);
    fail_if(info.bound, "label '" + name + "' defined twice");
    info.bound = true;
    asm_.bind(info.label);
  }

  /// A decimal or 0x-hex integer with an optional sign; nullopt if `t` is
  /// not one. A literal outside the int64 range fails.
  std::optional<std::int64_t> parse_int(const std::string& t) const {
    std::size_t i = !t.empty() && (t[0] == '-' || t[0] == '+') ? 1 : 0;
    const bool neg = i == 1 && t[0] == '-';
    int base = 10;
    if (t.size() - i > 2 && t[i] == '0' && (t[i + 1] == 'x' || t[i + 1] == 'X')) {
      base = 16;
      i += 2;
    }
    const char* last = t.data() + t.size();
    std::uint64_t magnitude = 0;
    const auto [end, ec] = std::from_chars(t.data() + i, last, magnitude, base);
    if (ec == std::errc::invalid_argument || end != last) return std::nullopt;
    const std::uint64_t limit = std::uint64_t{INT64_MAX} + (neg ? 1 : 0);
    fail_if(ec == std::errc::result_out_of_range || magnitude > limit,
            "integer literal out of range: " + t);
    return static_cast<std::int64_t>(neg ? 0 - magnitude : magnitude);
  }

  Operand parse_operand(const std::string& t) {
    if (auto mem = split_mem(t)) {
      auto reg = parse_xreg_name(trim(mem->second));
      fail_if(!reg, "bad base register in '" + t + "'");
      std::int64_t off = 0;
      const std::string off_text = trim(mem->first);
      if (!off_text.empty()) {
        auto o = parse_int(off_text);
        fail_if(!o, "bad memory offset in '" + t + "'");
        off = *o;
      }
      return Operand{Operand::Kind::kMem, *reg, off, {}};
    }
    if (auto r = parse_xreg_name(t)) return Operand{Operand::Kind::kXReg, *r, 0, {}};
    if (auto r = parse_prefixed_reg(t, 'f')) return Operand{Operand::Kind::kFReg, *r, 0, {}};
    if (auto r = parse_prefixed_reg(t, 'v')) return Operand{Operand::Kind::kVReg, *r, 0, {}};
    if (auto i = parse_int(t)) return Operand{Operand::Kind::kImm, 0, *i, {}};
    fail_if(t.empty(), "empty operand");
    return Operand{Operand::Kind::kSymbol, 0, 0, t};
  }

  XReg xop(const Operand& o) const {
    fail_if(o.kind != Operand::Kind::kXReg, "expected x register");
    return x(o.reg);
  }
  FReg fop(const Operand& o) const {
    fail_if(o.kind != Operand::Kind::kFReg, "expected f register");
    return f(o.reg);
  }
  VReg vop(const Operand& o) const {
    fail_if(o.kind != Operand::Kind::kVReg, "expected v register");
    return v(o.reg);
  }
  std::int32_t imm32(std::int64_t value) const {
    fail_if(value < INT32_MIN || value > INT32_MAX, "immediate out of 32-bit range");
    return static_cast<std::int32_t>(value);
  }
  std::int32_t iop(const Operand& o) const {
    fail_if(o.kind != Operand::Kind::kImm, "expected immediate");
    return imm32(o.imm);
  }
  /// The base register of an "off(reg)" operand.
  XReg mop(const Operand& o) const {
    fail_if(o.kind != Operand::Kind::kMem, "expected mem operand 'off(reg)'");
    return x(o.reg);
  }
  Assembler::Label target(const Operand& o) {
    fail_if(o.kind != Operand::Kind::kSymbol, "expected label operand");
    return label(o.symbol).label;
  }

  void parse_instruction(const std::string& text) {
    std::size_t sp = text.find_first_of(" \t");
    const std::string mnem = text.substr(0, sp);
    std::vector<Operand> ops;
    if (sp != std::string::npos) {
      std::string rest = text.substr(sp);
      std::string cur;
      std::istringstream ss(rest);
      while (std::getline(ss, cur, ',')) {
        cur = trim(cur);
        if (!cur.empty()) ops.push_back(parse_operand(cur));
      }
    }
    dispatch(mnem, ops);
  }

  void expect(std::size_t want, std::size_t got) const {
    fail_if(want != got, "expected " + std::to_string(want) + " operands, got " +
                             std::to_string(got));
  }

  void dispatch(const std::string& m, const std::vector<Operand>& o) {
    // Pseudo-instructions first.
    if (m == "li") { expect(2, o.size()); asm_.li(xop(o[0]), iop(o[1])); return; }
    if (m == "mv") { expect(2, o.size()); asm_.mv(xop(o[0]), xop(o[1])); return; }
    if (m == "nop") { expect(0, o.size()); asm_.nop(); return; }
    if (m == "j") { expect(1, o.size()); asm_.j(target(o[0])); return; }
    const std::optional<isa::Op> op = isa::op_named(m);
    fail_if(!op, "unknown mnemonic '" + m + "'");
    assemble_op(*op, o);
  }

  /// Reads `op`'s operands in the order and kinds of its table format, the
  /// one isa::disassemble() prints.
  void assemble_op(isa::Op op, const std::vector<Operand>& o) {
    const isa::Format& format = isa::op_row(op).format;
    expect(static_cast<std::size_t>(std::ranges::find(format, Arg::kNone) - format.begin()),
           o.size());
    isa::Instruction in{op};
    std::optional<Assembler::Label> pc_target;
    for (std::size_t i = 0; i < o.size(); ++i) {
      switch (format[i]) {
        case Arg::kNone: break;
        case Arg::kXd: in.rd = xop(o[i]).num; break;
        case Arg::kFd: in.rd = fop(o[i]).num; break;
        case Arg::kVd: in.rd = vop(o[i]).num; break;
        case Arg::kXs1: in.rs1 = xop(o[i]).num; break;
        case Arg::kFs1: in.rs1 = fop(o[i]).num; break;
        case Arg::kXs2: in.rs2 = xop(o[i]).num; break;
        case Arg::kFs2: in.rs2 = fop(o[i]).num; break;
        case Arg::kVs2: in.rs2 = vop(o[i]).num; break;
        case Arg::kSid: {
          const std::int32_t sid = iop(o[i]);
          fail_if(sid < 0 || sid > 3, "ssrcfg stream id must be in 0..3");
          in.rd = static_cast<std::uint8_t>(sid);
          break;
        }
        case Arg::kImmU:
        case Arg::kImmI:
        case Arg::kShamt:
        case Arg::kSimm5:
        case Arg::kUimm5:
        case Arg::kUimm12: in.imm = iop(o[i]); break;
        case Arg::kVtype:
          // The one vtype this subset runs, by name or by value.
          fail_if(o[i].kind == Operand::Kind::kSymbol ? o[i].symbol != "e32m1"
                                                      : iop(o[i]) != isa::kVtypeE32M1,
                  "only e32m1 vtype is supported");
          in.imm = isa::kVtypeE32M1;
          break;
        case Arg::kBranch:
        case Arg::kJump: pc_target = target(o[i]); break;
        case Arg::kMemI:
        case Arg::kMemS:
          in.rs1 = mop(o[i]).num;
          in.imm = imm32(o[i].imm);
          break;
        case Arg::kMemV:
          in.rs1 = mop(o[i]).num;
          fail_if(o[i].imm != 0, "vector memory operands take no offset");
          break;
      }
    }
    try {
      (void)isa::encode(in);  // range-check the immediates while the line is known
    } catch (const SimError& e) {
      fail(e.what());
    }
    asm_.emit(in, pc_target);
  }

  std::uint64_t base_;
  int line_no_ = 0;
  Assembler asm_;
  std::map<std::string, LabelInfo> labels_;
};

}  // namespace

Program assemble_text(const std::string& source, std::uint64_t base) {
  Parser parser(base);
  std::istringstream ss(source);
  std::string line;
  int line_no = 0;
  while (std::getline(ss, line)) parser.parse_line(line, ++line_no);
  return parser.finish();
}

std::string program_to_source(const Program& program) {
  // PC-relative instructions carry their target as a byte offset; collect
  // the absolute targets and name them in address order.
  const auto is_pc_relative = [](const isa::Instruction& in) {
    return isa::predecode(in).has(isa::kSiBranch) || in.op == isa::Op::kJal;
  };
  const std::vector<isa::Instruction>& decoded = program.decoded();
  std::map<std::uint64_t, unsigned> labels;  // target address -> label number
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    if (!is_pc_relative(decoded[i])) continue;
    const std::uint64_t target =
        program.base() + 4 * i + static_cast<std::uint64_t>(static_cast<std::int64_t>(decoded[i].imm));
    IMAC_CHECK(target >= program.base() && target <= program.end() && (target & 3) == 0,
               "program_to_source: branch target outside the program");
    labels.emplace(target, 0);
  }
  unsigned n = 0;
  for (auto& [addr, number] : labels) number = n++;
  const auto label_name = [](unsigned number) {
    std::string name = "L";
    name += std::to_string(number);
    return name;
  };

  std::string out;
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    const std::uint64_t pc = program.base() + 4 * i;
    if (const auto it = labels.find(pc); it != labels.end())
      out += label_name(it->second) + ":\n";
    std::string line = isa::disassemble(decoded[i]);
    if (is_pc_relative(decoded[i])) {
      // The offset is always the trailing operand; swap it for the label.
      const std::uint64_t target =
          pc + static_cast<std::uint64_t>(static_cast<std::int64_t>(decoded[i].imm));
      line = line.substr(0, line.rfind(' ') + 1) + label_name(labels.at(target));
    }
    out += "  " + line + "\n";
  }
  // A branch may target the address just past the last instruction.
  if (const auto it = labels.find(program.end()); it != labels.end())
    out += label_name(it->second) + ":\n";
  return out;
}

}  // namespace indexmac
