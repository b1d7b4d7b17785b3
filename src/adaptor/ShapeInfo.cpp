#include "adaptor/ShapeInfo.h"

#include "lir/LContext.h"
#include "support/StringUtils.h"

namespace mha::adaptor {

lir::ArrayType *ShapeInfo::arrayType(lir::LContext &ctx) const {
  lir::Type *t = elemTy;
  for (auto it = dims.rbegin(); it != dims.rend(); ++it)
    t = ctx.arrayTy(t, static_cast<uint64_t>(*it));
  return mha::cast<lir::ArrayType>(t);
}

std::optional<ShapeInfo> parseShapeMD(const lir::MDNode *node,
                                      lir::LContext &ctx, size_t firstIdx) {
  if (!node || !node->isString(firstIdx) || !node->isInt(firstIdx + 1))
    return std::nullopt;
  ShapeInfo info;
  const std::string &elem = node->getString(firstIdx);
  std::optional<int64_t> width; // of an "iN" element
  if (elem.size() > 1 && elem[0] == 'i')
    width = parseInt(elem.substr(1));
  if (elem == "f64" || elem == "double")
    info.elemTy = ctx.doubleTy();
  else if (elem == "f32" || elem == "float")
    info.elemTy = ctx.floatTy();
  else if (width && *width >= 1 && *width <= 64)
    info.elemTy = ctx.intTy(static_cast<unsigned>(*width));
  else
    return std::nullopt;
  int64_t rank = node->getInt(firstIdx + 1);
  for (int64_t d = 0; d < rank; ++d) {
    if (!node->isInt(firstIdx + 2 + static_cast<size_t>(d)))
      return std::nullopt;
    info.dims.push_back(node->getInt(firstIdx + 2 + static_cast<size_t>(d)));
  }
  return info;
}

std::optional<ShapeInfo> shapeOf(const lir::Value *base, lir::LContext &ctx) {
  if (const auto *arg = mha::dyn_cast<lir::Argument>(base))
    return parseShapeMD(arg->getMetadata("mha.shape"), ctx);
  if (const auto *inst = mha::dyn_cast<lir::Instruction>(base))
    if (inst->opcode() == lir::Opcode::Alloca)
      return parseShapeMD(inst->getMetadata("mha.shape"), ctx);
  return std::nullopt;
}

namespace {

void addTerm(LinearAddr &addr, lir::Value *v, int64_t coef) {
  if (coef == 0)
    return;
  for (auto &[tv, tc] : addr.terms) {
    if (tv == v) {
      tc += coef;
      return;
    }
  }
  addr.terms.push_back({v, coef});
}

bool decomposeInto(lir::Value *v, int64_t scale, LinearAddr &out) {
  if (auto *c = mha::dyn_cast<lir::ConstantInt>(v)) {
    out.constant += scale * c->value();
    return true;
  }
  if (auto *inst = mha::dyn_cast<lir::Instruction>(v)) {
    switch (inst->opcode()) {
    case lir::Opcode::Add:
      return decomposeInto(inst->operand(0), scale, out) &&
             decomposeInto(inst->operand(1), scale, out);
    case lir::Opcode::Sub:
      return decomposeInto(inst->operand(0), scale, out) &&
             decomposeInto(inst->operand(1), -scale, out);
    case lir::Opcode::Mul: {
      if (auto *rc = mha::dyn_cast<lir::ConstantInt>(inst->operand(1)))
        return decomposeInto(inst->operand(0), scale * rc->value(), out);
      if (auto *lc = mha::dyn_cast<lir::ConstantInt>(inst->operand(0)))
        return decomposeInto(inst->operand(1), scale * lc->value(), out);
      break;
    }
    case lir::Opcode::Shl: {
      if (auto *rc = mha::dyn_cast<lir::ConstantInt>(inst->operand(1)))
        if (rc->value() >= 0 && rc->value() < 63)
          return decomposeInto(inst->operand(0),
                               scale * (int64_t(1) << rc->value()), out);
      break;
    }
    case lir::Opcode::SExt:
    case lir::Opcode::ZExt:
      return decomposeInto(inst->operand(0), scale, out);
    default:
      break;
    }
  }
  // Leaf: an opaque index variable (loop iv, argument, ...).
  addTerm(out, v, scale);
  return true;
}

} // namespace

std::optional<LinearAddr> decomposeLinear(lir::Value *v) {
  LinearAddr out;
  if (!decomposeInto(v, 1, out))
    return std::nullopt;
  std::erase_if(out.terms, [](const auto &t) { return t.second == 0; });
  return out;
}

} // namespace mha::adaptor
